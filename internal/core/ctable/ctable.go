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
	"errors"
	"fmt"
	"strings"

	"oldelephant/internal/catalog"
	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/keysort"
	"oldelephant/internal/sql"
	"oldelephant/internal/value"
)

// denseRatio is the run-to-row ratio above which the dense (f, v)
// representation is smaller than (f, v, c) runs: three values per run versus
// two per row.
const denseRatio = 2.0 / 3.0

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
	// Source is SourceSQL's shape: the design answers the queries it covers
	// (sql.Shape.Covers).
	Source *sql.Shape
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
}

// NewBuilder returns a Builder with the paper's defaults.
func NewBuilder(e *engine.Engine) *Builder { return &Builder{Engine: e} }

// Build materializes the design named name for the result of sourceSQL,
// encoding the listed columns with the given sort order. Every sort column
// must be listed in columns; columns not in sortColumns are encoded as if
// they were appended to the end of the sort order (their runs break whenever
// any sort column changes). A source that sql.ShapeOf refuses is refused, and
// so is one that groups or aggregates: a design encodes rows of its source's
// tables, and the rewriter reads its c-tables as such. A build that fails
// after creating c-tables drops them, newest first.
func (b *Builder) Build(name, sourceSQL string, columns, sortColumns []string) (*Design, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("ctable: design %q has no columns", name)
	}
	stmt, err := sql.ParseSelect(sourceSQL)
	if err != nil {
		return nil, fmt.Errorf("ctable: source of design %q: %w", name, err)
	}
	source, err := sql.ShapeOf(stmt)
	if err != nil {
		return nil, fmt.Errorf("ctable: source of design %q: %w", name, err)
	}
	if len(source.GroupBy) > 0 {
		return nil, fmt.Errorf("ctable: source of design %q groups its rows (GROUP BY): a design encodes ungrouped rows", name)
	}
	for _, item := range source.Items {
		if sql.HasAggregate(item.Expr) {
			return nil, fmt.Errorf("ctable: source of design %q aggregates its rows (%s): a design encodes ungrouped rows", name, item.Expr)
		}
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
	positions := make([]int, len(ordered))
	for depth, col := range ordered {
		positions[depth] = colPos[indexOf(columns, col)]
	}
	numRows := len(res.Rows)
	sorted := sortedColumns(res.Rows, positions)
	res = nil // the source rows are garbage from here on
	breaks := runBreaks(sorted)

	design := &Design{
		Name:        name,
		SourceSQL:   sourceSQL,
		Source:      source,
		SortColumns: sortColumns,
		NumRows:     int64(numRows),
	}
	var buf loadBuf
	for depth, col := range ordered {
		var runs int
		for _, d := range breaks {
			if d <= depth {
				runs++
			}
		}
		dense := float64(runs) > denseRatio*float64(numRows) && numRows > 0
		ct, err := b.materialize(design.Name, col, sorted[depth], breaks, depth, runs, dense, &buf)
		if err != nil {
			for i := len(design.Columns) - 1; i >= 0; i-- {
				err = errors.Join(err, b.drop(design.Columns[i].Table))
			}
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

// sortedColumns returns the design's columns — rows' values at positions, in
// design order — as one flat column each, in the design's sort order: by
// those columns in turn. Each row's sort key is encoded once and only a
// permutation is sorted. A column whose non-NULL values are all of one kind
// is encoded as a stored key (value.AppendStoredKeyValue: a date in 3 bytes
// instead of 9), whose byte order within one kind is Compare's; any other
// column keeps value.AppendKeyValue, whose byte order is Compare's across
// kinds. Either way equal values encode equally, so the order is the same.
// Rows equal on every design column are interchangeable, so the tie-break on
// position only makes the order deterministic. Every later pass then reads
// the columns front to back.
func sortedColumns(rows []exec.Row, positions []int) [][]value.Value {
	compact := make([]bool, len(positions))
	for d, p := range positions {
		compact[d] = oneKind(rows, p)
	}
	keys := keysort.New(len(rows), 9*len(positions))
	for _, row := range rows {
		for d, p := range positions {
			if compact[d] {
				keys.Buf = value.AppendStoredKeyValue(keys.Buf, row[p])
			} else {
				keys.Buf = value.AppendKeyValue(keys.Buf, row[p])
			}
		}
		keys.End()
	}
	order := keys.Order()
	flat := make([]value.Value, len(positions)*len(rows))
	cols := make([][]value.Value, len(positions))
	for d := range cols {
		cols[d] = flat[d*len(rows) : (d+1)*len(rows)]
	}
	for i, p := range order {
		for d, pos := range positions {
			cols[d][i] = rows[p][pos]
		}
	}
	return cols
}

// oneKind reports whether the non-NULL values at position p of rows are all
// of one kind.
func oneKind(rows []exec.Row, p int) bool {
	kind := value.KindNull
	for _, row := range rows {
		switch k := row[p].Kind; {
		case k == value.KindNull || k == kind:
		case kind == value.KindNull:
			kind = k
		default:
			return false
		}
	}
	return true
}

// runBreaks returns, for each sorted position, the depth of the first design
// column whose value differs from the position before (len(cols) where none
// does, 0 at the first). A column at depth d starts a run exactly where the
// break is at most d: its own value changes or an earlier sort column's does
// (Section 2.2.1).
func runBreaks(cols [][]value.Value) []int {
	if len(cols) == 0 {
		return nil
	}
	breaks := make([]int, len(cols[0]))
	for i := 1; i < len(breaks); i++ {
		d := 0
		for d < len(cols) && value.Compare(cols[d][i-1], cols[d][i]) == 0 {
			d++
		}
		breaks[i] = d
	}
	return breaks
}

// loadBuf holds the load rows of one c-table: every row a window of one
// flat arena. A table no longer needs its rows once it is loaded, so the next
// c-table of the design reuses the memory.
type loadBuf struct {
	arena []value.Value
	rows  [][]value.Value
}

// reset returns an arena for n rows of width values and an empty row list
// with room for n.
func (buf *loadBuf) reset(n, width int) ([]value.Value, [][]value.Value) {
	if cap(buf.arena) < n*width {
		buf.arena = make([]value.Value, n*width)
	}
	if cap(buf.rows) < n {
		buf.rows = make([][]value.Value, 0, n)
	}
	return buf.arena[:n*width], buf.rows[:0]
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

// materialize creates and loads the c-table of the column at depth, whose
// sorted values are vals: runs (f, v, c), or one (f, v) row per position when
// dense, in f order, with the covering index on v built in the same load from
// the rows in hand. The load rows are windows of buf's arena.
func (b *Builder) materialize(designName, col string, vals []value.Value, breaks []int, depth, runs int, dense bool, buf *loadBuf) (ColumnTable, error) {
	tableName := TableName(designName, col)
	kind := value.KindInt
	for _, v := range vals {
		if !v.IsNull() {
			kind = v.Kind
			break
		}
	}
	ddl := fmt.Sprintf("CREATE TABLE %s (f BIGINT, v %s, c BIGINT, PRIMARY KEY (f))", tableName, sqlType(kind))
	include := []string{"f", "c"}
	width := 3
	if dense {
		ddl = fmt.Sprintf("CREATE TABLE %s (f BIGINT, v %s, PRIMARY KEY (f))", tableName, sqlType(kind))
		include, width, runs = include[:1], 2, len(vals)
	}
	if _, err := b.Engine.Execute(ddl); err != nil {
		return ColumnTable{}, fmt.Errorf("ctable: creating %s: %w", tableName, err)
	}
	arena, load := buf.reset(runs, width)
	for i, v := range vals {
		if !dense && i > 0 && breaks[i] > depth {
			load[len(load)-1][2].I++
			continue
		}
		r := arena[len(load)*width : (len(load)+1)*width : (len(load)+1)*width]
		r[0], r[1] = value.NewInt(int64(i+1)), v
		if !dense {
			r[2] = value.NewInt(1)
		}
		load = append(load, r)
	}
	ix := catalog.IndexDef{Name: "ix_" + tableName + "_v", Columns: []string{"v"}, Include: include}
	if err := b.Engine.BulkLoad(tableName, load, ix); err != nil {
		return ColumnTable{}, errors.Join(fmt.Errorf("ctable: loading %s: %w", tableName, err), b.drop(tableName))
	}
	return ColumnTable{Column: col, Table: tableName, Dense: dense, Depth: depth, Runs: int64(len(load))}, nil
}

// drop drops a c-table a failed build created.
func (b *Builder) drop(table string) error {
	if _, err := b.Engine.Execute("DROP TABLE " + table); err != nil {
		return fmt.Errorf("ctable: dropping %s: %w", table, err)
	}
	return nil
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
