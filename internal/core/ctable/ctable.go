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
	"slices"
	"strings"
	"sync/atomic"

	"oldelephant/internal/catalog"
	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
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
// so is one that groups or aggregates, or keeps only some of its rows (LIMIT,
// OFFSET): a design encodes every row of its source's tables, and the
// rewriter reads its c-tables as such. A build that fails after creating
// c-tables drops them, newest first.
//
// The engine sorts the source: Build replaces the source's own ORDER BY, if
// any, with the design's columns in design order, and keeps, as the sorted
// batches come, where each column's runs break and each run's value (runs).
// Rows equal on every design column are interchangeable, so any order of
// ties leaves the same c-tables. Every c-table's load is then worked out at
// once, on the engine's parallelism (engine.Engine.PrepareLoad), while the
// c-tables are created and written one after another in depth order, each as
// soon as its load is ready: only the page writes are serial, and they come
// in the order that decides page ids.
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
	if source.Limit >= 0 || source.Offset > 0 {
		clause := "LIMIT"
		if source.Limit < 0 {
			clause = "OFFSET"
		}
		return nil, fmt.Errorf("ctable: source of design %q keeps only some of its rows (%s): a design encodes every row", name, clause)
	}
	// The design's columns: sort columns first (in order), then the rest.
	ordered := orderColumns(columns, sortColumns)
	stmt.OrderBy = make([]sql.OrderItem, len(ordered))
	for i, col := range ordered {
		stmt.OrderBy[i] = sql.OrderItem{Expr: &sql.ColRef{Column: col}}
	}
	src := newRuns(len(ordered))
	var refused error
	err = b.Engine.QueryBatches(stmt, func(labels []string) (func(*exec.Batch) error, error) {
		var positions []int
		positions, refused = designPositions(name, labels, columns, sortColumns, ordered)
		if refused != nil {
			return nil, refused
		}
		return func(bt *exec.Batch) error {
			src.add(bt, positions)
			return nil
		}, nil
	})
	if refused != nil {
		return nil, refused
	}
	if err != nil {
		return nil, fmt.Errorf("ctable: evaluating source of design %q: %w", name, err)
	}
	design := &Design{
		Name:        name,
		SourceSQL:   sourceSQL,
		Source:      source,
		SortColumns: sortColumns,
		NumRows:     int64(len(src.breaks)),
	}
	tables := layOut(name, ordered, src)
	b.prepare(tables, src)
	for _, ct := range tables {
		if err := b.write(ct); err != nil {
			for i := len(design.Columns) - 1; i >= 0; i-- {
				err = errors.Join(err, b.drop(design.Columns[i].Table))
			}
			for _, ct := range tables {
				<-ct.ready // no preparation outlives the build
			}
			return nil, err
		}
		design.Columns = append(design.Columns, ct.ColumnTable)
	}
	return design, nil
}

// designPositions locates each design column, in design order, among the
// source's result labels, and checks that every sort column is one of the
// design's columns.
func designPositions(design string, labels, columns, sortColumns, ordered []string) ([]int, error) {
	colPos := make([]int, len(columns))
	for i, col := range columns {
		colPos[i] = slices.IndexFunc(labels, func(label string) bool { return strings.EqualFold(label, col) })
		if colPos[i] < 0 {
			return nil, fmt.Errorf("ctable: source of design %q does not produce column %q", design, col)
		}
	}
	for _, sc := range sortColumns {
		if indexOf(columns, sc) < 0 {
			return nil, fmt.Errorf("ctable: sort column %q is not among the design's columns", sc)
		}
	}
	positions := make([]int, len(ordered))
	for depth, col := range ordered {
		positions[depth] = colPos[indexOf(columns, col)]
	}
	return positions, nil
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

// runs is a design's source as the builder drains it, sorted in design
// order: for each position, the depth of the first design column whose value
// differs from the position before (breaks: 0 at the first, the number of
// columns where none does), and the value of each run of each column, by
// depth. A column at depth d starts a run exactly where the break is at most
// d: its own value changes or an earlier sort column's does (Section 2.2.1).
type runs struct {
	breaks []int32
	vals   []*exec.Slab
	last   []value.Value // each column's value at the last position
	starts []value.Value // add's buffer for one batch's run values
}

func newRuns(width int) *runs {
	r := &runs{vals: make([]*exec.Slab, width), last: make([]value.Value, width)}
	for d := range r.vals {
		r.vals[d] = exec.NewSlab(1)
	}
	return r
}

// add appends the live rows of a batch whose design columns, in design
// order, sit at positions: a column at a time, each row compared with the
// row before only while no earlier column has broken there.
func (r *runs) add(b *exec.Batch, positions []int) {
	first := len(r.breaks)
	for range b.NumRows() {
		r.breaks = append(r.breaks, int32(len(positions)))
	}
	brk := r.breaks[first:]
	if first == 0 && len(brk) > 0 {
		brk[0] = 0
	}
	for d, p := range positions {
		col, last, starts := b.Cols[p].Flat(), r.last[d], r.starts[:0]
		for i := range brk {
			v := col[b.PhysIdx(i)]
			if brk[i] > int32(d) && value.Compare(last, v) != 0 {
				brk[i] = int32(d)
			}
			if brk[i] <= int32(d) {
				starts = append(starts, v)
			}
			last = v
		}
		r.vals[d].AppendRows(starts)
		r.last[d], r.starts = last, starts
	}
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

// cTable is one c-table of a design being built: what it is, its CREATE
// TABLE statement and covering index, and its load once worked out.
type cTable struct {
	ColumnTable
	ddl   string
	index catalog.IndexDef
	load  *catalog.Load
	err   error
	ready chan struct{} // closed once load or err is set
}

// layOut describes the c-table of the column at each depth: its runs
// (f, v, c), or one (f, v) row per position when the runs barely compress,
// clustered on f and covered on v.
func layOut(design string, ordered []string, src *runs) []*cTable {
	numRows := len(src.breaks)
	tables := make([]*cTable, len(ordered))
	for depth, col := range ordered {
		vals := src.vals[depth]
		runs := vals.Len()
		tableName := TableName(design, col)
		kind := value.KindInt
		for i := range runs {
			if v := vals.Row(i)[0]; !v.IsNull() {
				kind = v.Kind
				break
			}
		}
		ct := &cTable{
			ColumnTable: ColumnTable{Column: col, Table: tableName, Depth: depth, Runs: int64(runs)},
			ddl:         fmt.Sprintf("CREATE TABLE %s (f BIGINT, v %s, c BIGINT, PRIMARY KEY (f))", tableName, sqlType(kind)),
			index:       catalog.IndexDef{Name: "ix_" + tableName + "_v", Columns: []string{"v"}, Include: []string{"f", "c"}},
			ready:       make(chan struct{}),
		}
		if float64(runs) > denseRatio*float64(numRows) && numRows > 0 {
			ct.Dense, ct.Runs = true, int64(numRows)
			ct.ddl = fmt.Sprintf("CREATE TABLE %s (f BIGINT, v %s, PRIMARY KEY (f))", tableName, sqlType(kind))
			ct.index.Include = ct.index.Include[:1]
		}
		tables[depth] = ct
	}
	return tables
}

// rows returns the c-table's load rows, in f order, from its column's runs:
// every row a window of one flat arena. The arena and the row list are
// buf's, which grows them as needed: a c-table's rows are garbage once its
// load is worked out, so the next c-table reuses them.
func (ct *cTable) rows(src *runs, buf *loadBuf) [][]value.Value {
	width := 3
	if ct.Dense {
		width = 2
	}
	arena, load := buf.reset(int(ct.Runs), width)
	run, v := -1, value.Null()
	for i, brk := range src.breaks {
		starts := int(brk) <= ct.Depth
		if starts {
			run++
			v = src.vals[ct.Depth].Row(run)[0]
		}
		if !ct.Dense && !starts {
			load[len(load)-1][2].I++
			continue
		}
		r := arena[len(load)*width : (len(load)+1)*width : (len(load)+1)*width]
		r[0], r[1] = value.NewInt(int64(i+1)), v
		if !ct.Dense {
			r[2] = value.NewInt(1)
		}
		load = append(load, r)
	}
	return load
}

// loadBuf holds the load rows of one c-table: every row a window of one flat
// arena.
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

// prepare works every c-table's load out, in depth order, on the engine's
// parallelism of goroutines (each load is worked out on as many again),
// closing each c-table's ready channel once its load is.
func (b *Builder) prepare(tables []*cTable, src *runs) {
	var next atomic.Int64
	for range min(b.Engine.Parallelism(), len(tables)) {
		go func() {
			var buf loadBuf
			for i := int(next.Add(1) - 1); i < len(tables); i = int(next.Add(1) - 1) {
				ct := tables[i]
				ct.load, ct.err = b.Engine.PrepareLoad(ct.ddl, ct.rows(src, &buf), ct.index)
				close(ct.ready)
			}
		}()
	}
}

// write creates the c-table and writes its load once it is ready, dropping
// the table again if the load fails.
func (b *Builder) write(ct *cTable) error {
	_, err := b.Engine.Execute(ct.ddl)
	<-ct.ready
	if err != nil {
		return fmt.Errorf("ctable: creating %s: %w", ct.Table, err)
	}
	err = ct.err
	if err == nil {
		err = b.Engine.WriteLoad(ct.Table, ct.load)
	}
	ct.load = nil // the written load is garbage
	if err != nil {
		return errors.Join(fmt.Errorf("ctable: loading %s: %w", ct.Table, err), b.drop(ct.Table))
	}
	return nil
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
