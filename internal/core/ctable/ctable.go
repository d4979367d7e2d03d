// Package ctable implements the paper's central idea: a *logical* database
// design that lets an unmodified row store emulate the RLE-compressed,
// column-wise storage of a C-store.
//
// Given a projection D = (expression | sortColumns), the builder materializes
// one "c-table" per column x of the expression. A c-table row (f, v, c) means
// that positions f .. f+c-1 of the sorted expression all carry value v for
// column x, where runs additionally break whenever any earlier sort column
// changes (Section 2.2.1 of the paper). Columns that barely compress fall
// back to the dense representation (f, v) with an implicit run length of one
// (the paper's T_C example in Figure 3).
//
// Each c-table gets a clustered index on f and a secondary covering index on
// v INCLUDE (f, c), which is exactly the physical design the paper's
// rewritten queries (package core/rewrite) rely on.
//
// Because every c-table is clustered on f and covered on v, the planner's
// sort-prefix marking makes c-table scans emit encoding-aware vectors: a
// range seek on the covering v index produces RLE vectors of v (the design's
// own run structure), and an equality predicate — the range-collapse case of
// Figure 4, where the whole seek range carries one value — collapses v to a
// Const vector, so the batch executor works on the compressed form
// end to end.
package ctable

import (
	"fmt"
	"slices"
	"strings"

	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/value"
)

// DefaultDenseThreshold is the run-to-row ratio above which the dense (f, v)
// representation is smaller than (f, v, c) runs: three values per run versus
// two per row.
const DefaultDenseThreshold = 2.0 / 3.0

// ColumnTable describes the materialized c-table of one column.
type ColumnTable struct {
	// Column is the source column name (e.g. "l_suppkey").
	Column string
	// Table is the name of the materialized c-table (e.g. "d1_l_suppkey").
	Table string
	// Dense is true when the column uses the (f, v) representation with an
	// implicit run length of 1 instead of (f, v, c).
	Dense bool
	// Depth is the column's position in the design's column order (0 = first
	// sort column); runs of deeper columns nest inside runs of shallower ones.
	Depth int
	// Runs is the number of rows in the c-table.
	Runs int64
}

// Design is a full c-table design: the paper's D1, D2, D4.
type Design struct {
	// Name prefixes every c-table name.
	Name string
	// SourceSQL is the query whose result is being encoded (the projection's
	// defining expression, e.g. a join of lineitem and orders).
	SourceSQL string
	// SortColumns is the global ordering of the design.
	SortColumns []string
	// Columns lists the per-column c-tables in depth order.
	Columns []ColumnTable
	// NumRows is the number of rows of the source expression.
	NumRows int64
}

// Column returns the c-table metadata for a source column.
func (d *Design) Column(name string) (ColumnTable, bool) {
	for _, c := range d.Columns {
		if strings.EqualFold(c.Column, name) {
			return c, true
		}
	}
	return ColumnTable{}, false
}

// HasColumn reports whether the design encodes the given source column.
func (d *Design) HasColumn(name string) bool {
	_, ok := d.Column(name)
	return ok
}

// TotalRuns sums the c-table row counts, a proxy for the design's size.
func (d *Design) TotalRuns() int64 {
	var total int64
	for _, c := range d.Columns {
		total += c.Runs
	}
	return total
}

// Builder materializes c-table designs inside an engine.
type Builder struct {
	Engine *engine.Engine
	// DenseThreshold overrides DefaultDenseThreshold when > 0.
	DenseThreshold float64
	// SkipValueIndex disables the secondary covering index on v (used by
	// ablation experiments; the paper's design always creates it).
	SkipValueIndex bool
}

// NewBuilder returns a Builder with the paper's defaults.
func NewBuilder(e *engine.Engine) *Builder { return &Builder{Engine: e} }

// Build materializes the design named name for the result of sourceSQL,
// encoding the listed columns with the given sort order. Every sort column
// must be listed in columns; columns not in sortColumns are encoded as if
// they were appended to the end of the sort order (their runs break whenever
// any sort column changes).
func (b *Builder) Build(name, sourceSQL string, columns, sortColumns []string) (*Design, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("ctable: design %q has no columns", name)
	}
	res, err := b.Engine.Query(sourceSQL)
	if err != nil {
		return nil, fmt.Errorf("ctable: evaluating source of design %q: %w", name, err)
	}
	// Locate each requested column in the source result.
	colPos := make([]int, len(columns))
	for i, col := range columns {
		pos := -1
		for j, label := range res.Columns {
			if strings.EqualFold(label, col) {
				pos = j
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("ctable: source of design %q does not produce column %q", name, col)
		}
		colPos[i] = pos
	}
	for _, sc := range sortColumns {
		found := false
		for _, col := range columns {
			if strings.EqualFold(col, sc) {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("ctable: sort column %q is not among the design's columns", sc)
		}
	}

	// Order the design's columns: sort columns first (in order), then the rest.
	ordered := orderColumns(columns, sortColumns)
	sortRows(res.Rows, ordered, columns, colPos)

	design := &Design{
		Name:        name,
		SourceSQL:   sourceSQL,
		SortColumns: sortColumns,
		NumRows:     int64(len(res.Rows)),
	}
	threshold := b.DenseThreshold
	if threshold <= 0 {
		threshold = DefaultDenseThreshold
	}
	for depth, col := range ordered {
		pos := colPos[indexOf(columns, col)]
		// Positions of the columns that precede this one in the design order;
		// a run breaks when any of them changes.
		var breakPos []int
		for _, prev := range ordered[:depth] {
			breakPos = append(breakPos, colPos[indexOf(columns, prev)])
		}
		runs := computeRuns(res.Rows, pos, breakPos)
		dense := float64(len(runs)) > threshold*float64(len(res.Rows)) && len(res.Rows) > 0
		ct, err := b.materialize(design.Name, col, res.Rows, pos, runs, dense, depth)
		if err != nil {
			return nil, err
		}
		design.Columns = append(design.Columns, ct)
	}
	return design, nil
}

// orderColumns returns the design's columns with the sort columns first.
func orderColumns(columns, sortColumns []string) []string {
	var out []string
	used := make(map[string]bool)
	for _, sc := range sortColumns {
		for _, c := range columns {
			if strings.EqualFold(c, sc) && !used[strings.ToLower(c)] {
				out = append(out, c)
				used[strings.ToLower(c)] = true
			}
		}
	}
	for _, c := range columns {
		if !used[strings.ToLower(c)] {
			out = append(out, c)
			used[strings.ToLower(c)] = true
		}
	}
	return out
}

func indexOf(list []string, name string) int {
	for i, s := range list {
		if strings.EqualFold(s, name) {
			return i
		}
	}
	return -1
}

// sortRows sorts the source rows by the design's column order.
func sortRows(rows []exec.Row, ordered, columns []string, colPos []int) {
	var sortPositions []int
	for _, col := range ordered {
		sortPositions = append(sortPositions, colPos[indexOf(columns, col)])
	}
	slices.SortStableFunc(rows, func(a, b exec.Row) int {
		for _, p := range sortPositions {
			if cmp := value.Compare(a[p], b[p]); cmp != 0 {
				return cmp
			}
		}
		return 0
	})
}

// run is one (f, v, c) triple before materialization.
type run struct {
	first int64
	val   value.Value
	count int64
}

// computeRuns groups consecutive rows with equal values in column pos that
// also agree on all break columns (the columns earlier in the sort order).
func computeRuns(rows []exec.Row, pos int, breakPos []int) []run {
	var runs []run
	for i, row := range rows {
		v := row[pos]
		newRun := len(runs) == 0
		if !newRun {
			if value.Compare(v, runs[len(runs)-1].val) != 0 {
				newRun = true
			} else if i > 0 {
				prev := rows[i-1]
				for _, bp := range breakPos {
					if value.Compare(prev[bp], row[bp]) != 0 {
						newRun = true
						break
					}
				}
			}
		}
		if newRun {
			runs = append(runs, run{first: int64(i + 1), val: v, count: 1})
		} else {
			runs[len(runs)-1].count++
		}
	}
	return runs
}

// sqlType maps a value kind to the SQL type used for the v column.
func sqlType(k value.Kind) string {
	switch k {
	case value.KindFloat:
		return "DOUBLE"
	case value.KindString:
		return "VARCHAR(64)"
	case value.KindDate:
		return "DATE"
	case value.KindBool:
		return "BOOL"
	default:
		return "BIGINT"
	}
}

// TableName returns the canonical c-table name for a design column.
func TableName(design, column string) string {
	return strings.ToLower(design) + "_" + strings.ToLower(column)
}

// materialize creates and loads the c-table for one column.
func (b *Builder) materialize(designName, col string, rows []exec.Row, pos int, runs []run, dense bool, depth int) (ColumnTable, error) {
	tableName := TableName(designName, col)
	kind := value.KindInt
	for _, r := range rows {
		if !r[pos].IsNull() {
			kind = r[pos].Kind
			break
		}
	}
	var ddl string
	if dense {
		ddl = fmt.Sprintf("CREATE TABLE %s (f BIGINT, v %s, PRIMARY KEY (f))", tableName, sqlType(kind))
	} else {
		ddl = fmt.Sprintf("CREATE TABLE %s (f BIGINT, v %s, c BIGINT, PRIMARY KEY (f))", tableName, sqlType(kind))
	}
	if _, err := b.Engine.Execute(ddl); err != nil {
		return ColumnTable{}, fmt.Errorf("ctable: creating %s: %w", tableName, err)
	}
	var load [][]value.Value
	var loaded int64
	if dense {
		for i, r := range rows {
			load = append(load, []value.Value{value.NewInt(int64(i + 1)), r[pos]})
		}
		loaded = int64(len(rows))
	} else {
		for _, ru := range runs {
			load = append(load, []value.Value{value.NewInt(ru.first), ru.val, value.NewInt(ru.count)})
		}
		loaded = int64(len(runs))
	}
	if err := b.Engine.BulkLoad(tableName, load); err != nil {
		return ColumnTable{}, fmt.Errorf("ctable: loading %s: %w", tableName, err)
	}
	if !b.SkipValueIndex {
		var idxDDL string
		if dense {
			idxDDL = fmt.Sprintf("CREATE INDEX ix_%s_v ON %s (v) INCLUDE (f)", tableName, tableName)
		} else {
			idxDDL = fmt.Sprintf("CREATE INDEX ix_%s_v ON %s (v) INCLUDE (f, c)", tableName, tableName)
		}
		if _, err := b.Engine.Execute(idxDDL); err != nil {
			return ColumnTable{}, fmt.Errorf("ctable: indexing %s: %w", tableName, err)
		}
	}
	return ColumnTable{Column: col, Table: tableName, Dense: dense, Depth: depth, Runs: loaded}, nil
}

// Verify checks the design's invariants against the engine's contents:
//   - run positions are 1-based, strictly increasing, and contiguous per table
//     (each run starts where the previous one ended);
//   - every c-table covers exactly positions 1..NumRows;
//   - runs of deeper columns never straddle run boundaries of shallower ones.
//
// It is used by tests and by the example programs to demonstrate the property
// of c-tables that makes the paper's band-join rewriting correct.
func (b *Builder) Verify(d *Design) error {
	type runRange struct{ first, last int64 }
	perColumn := make(map[string][]runRange)
	for _, ct := range d.Columns {
		q := "SELECT f, c FROM " + ct.Table + " ORDER BY f"
		if ct.Dense {
			q = "SELECT f FROM " + ct.Table + " ORDER BY f"
		}
		res, err := b.Engine.Query(q)
		if err != nil {
			return err
		}
		var ranges []runRange
		next := int64(1)
		for _, row := range res.Rows {
			f := row[0].Int()
			c := int64(1)
			if !ct.Dense {
				c = row[1].Int()
			}
			if f != next {
				return fmt.Errorf("ctable: %s: run starting at %d, expected %d", ct.Table, f, next)
			}
			if c < 1 {
				return fmt.Errorf("ctable: %s: non-positive run length %d at %d", ct.Table, c, f)
			}
			ranges = append(ranges, runRange{first: f, last: f + c - 1})
			next = f + c
		}
		if next != d.NumRows+1 {
			return fmt.Errorf("ctable: %s covers positions up to %d, want %d", ct.Table, next-1, d.NumRows)
		}
		perColumn[ct.Column] = ranges
	}
	// Nesting: every run of a deeper column lies inside one run of each
	// shallower column.
	for i := 1; i < len(d.Columns); i++ {
		deep := perColumn[d.Columns[i].Column]
		for j := 0; j < i; j++ {
			shallow := perColumn[d.Columns[j].Column]
			si := 0
			for _, r := range deep {
				for si < len(shallow) && shallow[si].last < r.first {
					si++
				}
				if si >= len(shallow) || r.first < shallow[si].first || r.last > shallow[si].last {
					return fmt.Errorf("ctable: run [%d,%d] of %s straddles runs of %s",
						r.first, r.last, d.Columns[i].Table, d.Columns[j].Table)
				}
			}
		}
	}
	return nil
}
