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
	"sync"
	"sync/atomic"

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
//
// The source is drained batch by batch into one slice per design column,
// each row's sort key encoded as it arrives, and sorted once. Every c-table's
// load is then worked out at once, on the engine's parallelism
// (engine.Engine.PrepareLoad), while the c-tables are created and written one
// after another in depth order, each as soon as its load is ready: only the
// page writes are serial, and they come in the order that decides page ids.
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
	// The design's columns: sort columns first (in order), then the rest.
	ordered := orderColumns(columns, sortColumns)
	src := newSource(len(ordered), b.Engine.Parallelism())
	defer src.finish()
	var refused error
	err = b.Engine.QueryBatches(sourceSQL, func(labels []string) (func(*exec.Batch) error, error) {
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
	sorted := src.sorted()
	design := &Design{
		Name:        name,
		SourceSQL:   sourceSQL,
		Source:      source,
		SortColumns: sortColumns,
		NumRows:     int64(len(sorted[0])),
	}
	breaks := runBreaks(sorted, b.Engine.Parallelism())
	tables := layOut(name, ordered, sorted, breaks)
	b.prepare(tables, sorted, breaks)
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

// source is a design's source result as the builder drains it: the values
// of each design column, in design order, and each row's sort key — the row's
// design columns in turn — both kept in blocks of sourceBlock rows. The keys
// of a block are encoded on other goroutines as soon as its rows are in, so
// encoding runs beside the plan that produces the rows. A column whose
// non-NULL values are all of one kind is encoded as stored keys
// (value.AppendStoredKeyValue: a date in 3 bytes instead of 9), whose byte
// order within one kind is Compare's; any other column as
// value.AppendKeyValue, whose byte order is Compare's across kinds. Either
// way equal values encode equally, so the order is the same.
type source struct {
	blocks []*block
	n      int
	// kinds[d] is the kind of column d's non-NULL values so far, NULL before
	// the first; mixed[d] is set once a second kind turns up. Blocks are
	// encoded as if no column were mixed, and all of them afresh (sorted)
	// if one is.
	kinds []value.Kind
	mixed []bool
	// full hands the encoders each block once its rows are in, holding one
	// waiting block per encoder so the drain rarely waits; closing it
	// (finish) stops them.
	full    chan *block
	encoded sync.WaitGroup
	workers int
}

// block is sourceBlock rows of a source: each design column's values, and
// the rows' sort keys once encoded.
type block struct {
	cols [][]value.Value
	keys *keysort.Keys
}

// sourceBlock is how many rows one block of a source holds.
const sourceBlock = 4096

// newSource starts a source of width design columns with workers encoders.
func newSource(width, workers int) *source {
	s := &source{kinds: make([]value.Kind, width), mixed: make([]bool, width), full: make(chan *block, workers), workers: workers}
	s.encoded.Add(workers)
	for range workers {
		go func() {
			defer s.encoded.Done()
			for blk := range s.full {
				blk.encode(nil)
			}
		}()
	}
	return s
}

// add appends the live rows of a batch whose design columns sit at
// positions, a block's worth at a time.
func (s *source) add(b *exec.Batch, positions []int) {
	flats := make([][]value.Value, len(positions))
	for d, p := range positions {
		flats[d] = b.Cols[p].Flat()
	}
	for done, n := 0, b.NumRows(); done < n; {
		if s.n%sourceBlock == 0 {
			blk := &block{cols: make([][]value.Value, len(positions))}
			for d := range blk.cols {
				blk.cols[d] = make([]value.Value, 0, sourceBlock)
			}
			s.blocks = append(s.blocks, blk)
		}
		blk := s.blocks[len(s.blocks)-1]
		take := min(n-done, sourceBlock-s.n%sourceBlock)
		for d, flat := range flats {
			col := blk.cols[d]
			if b.Sel == nil {
				col = append(col, flat[done:done+take]...)
			} else {
				for _, p := range b.Sel[done : done+take] {
					col = append(col, flat[p])
				}
			}
			for _, v := range col[len(col)-take:] {
				switch k := v.Kind; {
				case k == value.KindNull || k == s.kinds[d]:
				case s.kinds[d] == value.KindNull:
					s.kinds[d] = k
				default:
					s.mixed[d] = true
				}
			}
			blk.cols[d] = col
		}
		done += take
		if s.n += take; s.n%sourceBlock == 0 {
			s.full <- blk
		}
	}
}

// finish stops the encoders once they have encoded every full block; it is
// safe to call more than once.
func (s *source) finish() {
	if s.full != nil {
		close(s.full)
		s.encoded.Wait()
		s.full = nil
	}
}

// encode encodes the block's sort keys, the columns mixed marks as
// value.AppendKeyValue and the others as stored keys.
func (blk *block) encode(mixed []bool) {
	n := len(blk.cols[0])
	keys := keysort.New(n, 9*len(blk.cols))
	for i := range n {
		for d, col := range blk.cols {
			if mixed != nil && mixed[d] {
				keys.Buf = value.AppendKeyValue(keys.Buf, col[i])
			} else {
				keys.Buf = value.AppendStoredKeyValue(keys.Buf, col[i])
			}
		}
		keys.End()
	}
	blk.keys = keys
}

// sorted returns the design's columns in the design's sort order: by those
// columns in turn. Only a permutation is sorted, on the keys; rows equal on
// every design column are interchangeable, so the tie-break on arrival only
// makes the order deterministic. The columns are gathered in that order on
// the encoders' count of goroutines, and every later pass reads them front
// to back.
func (s *source) sorted() [][]value.Value {
	s.finish()
	mixed := slices.Contains(s.mixed, true)
	parts := make([]*keysort.Keys, len(s.blocks))
	for i, blk := range s.blocks {
		if blk.keys == nil || mixed {
			blk.encode(s.mixed) // the last block, or every block when a column is mixed
		}
		parts[i] = blk.keys
	}
	order := keysort.Join(parts).OrderOn(s.workers)
	out := make([][]value.Value, len(s.mixed))
	flat := make([]value.Value, len(out)*s.n)
	for d := range out {
		out[d] = flat[d*s.n : (d+1)*s.n : (d+1)*s.n]
	}
	inStripes(s.n, s.workers, func(lo, hi int) {
		for d, col := range out {
			for i, p := range order[lo:hi] {
				col[lo+i] = s.blocks[p/sourceBlock].cols[d][p%sourceBlock]
			}
		}
	})
	s.blocks = nil // gathered: the blocks are garbage
	return out
}

// inStripes runs task over workers stripes of [0, n), each on a goroutine
// of its own, and waits for them.
func inStripes(n, workers int, task func(lo, hi int)) {
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task(w*n/workers, (w+1)*n/workers)
		}()
	}
	wg.Wait()
}

// runBreaks returns, for each sorted position, the depth of the first design
// column whose value differs from the position before (len(cols) where none
// does, 0 at the first). A column at depth d starts a run exactly where the
// break is at most d: its own value changes or an earlier sort column's does
// (Section 2.2.1).
func runBreaks(cols [][]value.Value, workers int) []int {
	breaks := make([]int, len(cols[0]))
	inStripes(len(breaks), workers, func(lo, hi int) {
		for i := max(lo, 1); i < hi; i++ {
			d := 0
			for d < len(cols) && value.Compare(cols[d][i-1], cols[d][i]) == 0 {
				d++
			}
			breaks[i] = d
		}
	})
	return breaks
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

// layOut describes the c-table of the column at each depth, whose sorted
// values are sorted[depth]: runs (f, v, c), or one (f, v) row per position
// when the runs barely compress, clustered on f and covered on v.
func layOut(design string, ordered []string, sorted [][]value.Value, breaks []int) []*cTable {
	numRows := len(sorted[0])
	// The column at depth d starts a run wherever the break is at most d.
	atDepth := make([]int, len(ordered)+1)
	for _, d := range breaks {
		atDepth[d]++
	}
	tables := make([]*cTable, len(ordered))
	runs := 0
	for depth, col := range ordered {
		runs += atDepth[depth]
		tableName := TableName(design, col)
		kind := value.KindInt
		if i := slices.IndexFunc(sorted[depth], func(v value.Value) bool { return !v.IsNull() }); i >= 0 {
			kind = sorted[depth][i].Kind
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

// rows returns the c-table's load rows, in f order, from its column's sorted
// values: every row a window of one flat arena. The arena and the row list
// are buf's, which grows them as needed: a c-table's rows are garbage once
// its load is worked out, so the next c-table reuses them.
func (ct *cTable) rows(vals []value.Value, breaks []int, buf *loadBuf, workers int) [][]value.Value {
	width := 3
	if ct.Dense {
		width = 2
	}
	arena, load := buf.reset(int(ct.Runs), width)
	if ct.Dense { // a row per position: the rows are independent
		load = load[:len(vals)]
		inStripes(len(vals), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r := arena[i*width : (i+1)*width : (i+1)*width]
				r[0], r[1] = value.NewInt(int64(i+1)), vals[i]
				load[i] = r
			}
		})
		return load
	}
	for i, v := range vals {
		if !ct.Dense && i > 0 && breaks[i] > ct.Depth {
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
func (b *Builder) prepare(tables []*cTable, sorted [][]value.Value, breaks []int) {
	var next atomic.Int64
	for range min(b.Engine.Parallelism(), len(tables)) {
		go func() {
			var buf loadBuf
			for i := int(next.Add(1) - 1); i < len(tables); i = int(next.Add(1) - 1) {
				ct := tables[i]
				ct.load, ct.err = b.Engine.PrepareLoad(ct.ddl, ct.rows(sorted[i], breaks, &buf, b.Engine.Parallelism()), ct.index)
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
