package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"oldelephant/internal/expr"
	"oldelephant/internal/value"
)

// valuesMorseler is a test Morseler over in-memory rows with controllable
// morsel boundaries: chunk rows per morsel, optionally interleaving empty
// morsels (the "worker got a morsel whose rows all vanish" case).
type valuesMorseler struct {
	*ValuesScan
	chunk      int
	emptyEvery int // inject an empty morsel before every nth chunk
}

func (v *valuesMorseler) NumScanRows() int64 { return int64(len(v.Rows)) }

func (v *valuesMorseler) Morsels(target int, _ bool) ([]Operator, bool) {
	size := v.chunk
	if size <= 0 {
		size = target
	}
	var out []Operator
	n := 0
	for i := 0; i < len(v.Rows); i += size {
		j := i + size
		if j > len(v.Rows) {
			j = len(v.Rows)
		}
		n++
		if v.emptyEvery > 0 && n%v.emptyEvery == 0 {
			out = append(out, NewValuesScan(v.Cols, nil))
		}
		out = append(out, NewValuesScan(v.Cols, v.Rows[i:j]))
	}
	if len(out) < 2 {
		return nil, false
	}
	return out, true
}

func (v *valuesMorseler) NumMorsels(target int) int {
	parts, _ := v.Morsels(target, false)
	return len(parts)
}

func testRows(n int, groups int) []Row {
	rng := rand.New(rand.NewSource(7))
	rows := make([]Row, n)
	for i := range rows {
		g := i % groups
		rows[i] = Row{
			value.NewInt(int64(g)),
			value.NewInt(int64(i)),
			value.NewFloat(rng.Float64() * 1000),
		}
	}
	return rows
}

func testSchema() []ColumnInfo {
	return []ColumnInfo{
		{Name: "g", Kind: value.KindInt},
		{Name: "n", Kind: value.KindInt},
		{Name: "x", Kind: value.KindFloat},
	}
}

func allAggSpecs() []AggSpec {
	return []AggSpec{
		{Kind: AggCountStar, Name: "cnt"},
		{Kind: AggCount, Arg: expr.NewColumn(1, "n"), Name: "cntn"},
		{Kind: AggSum, Arg: expr.NewColumn(1, "n"), Name: "sumn"},
		{Kind: AggSum, Arg: expr.NewColumn(2, "x"), Name: "sumx"},
		{Kind: AggAvg, Arg: expr.NewColumn(2, "x"), Name: "avgx"},
		{Kind: AggMin, Arg: expr.NewColumn(1, "n"), Name: "minn"},
		{Kind: AggMax, Arg: expr.NewColumn(2, "x"), Name: "maxx"},
	}
}

// rowsMatch compares result sets exactly except floats, which compare with a
// relative tolerance (parallel partial sums fold in morsel order, so float
// addition may round differently from the serial accumulation).
func rowsMatch(t *testing.T, got, want []Row, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row counts differ: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d arity differs: got %d want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			g, w := got[i][j], want[i][j]
			if g.Kind == value.KindFloat && w.Kind == value.KindFloat {
				diff := math.Abs(g.F - w.F)
				scale := math.Max(math.Abs(g.F), math.Abs(w.F))
				if diff > tol*math.Max(scale, 1) {
					t.Fatalf("row %d col %d: %v vs %v (tolerance %g)", i, j, g, w, tol)
				}
				continue
			}
			if g.Kind != w.Kind || value.Compare(g, w) != 0 {
				t.Fatalf("row %d col %d: %v (%v) vs %v (%v)", i, j, g, g.Kind, w, w.Kind)
			}
		}
	}
}

// TestParallelAggStateMerge is the partial→final combining unit test for the
// aggregate state itself: splitting any value stream into partials and
// merging must agree with serial accumulation for COUNT/SUM/AVG/MIN/MAX —
// exactly for the integer-family states, within 1e-9 relative for float sums.
func TestParallelAggStateMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]value.Value, 1000)
	for i := range vals {
		switch i % 10 {
		case 3:
			vals[i] = value.Null()
		case 7:
			vals[i] = value.NewFloat(rng.Float64()*2e6 - 1e6)
		default:
			vals[i] = value.NewInt(int64(rng.Intn(2000) - 1000))
		}
	}
	kinds := []AggKind{AggCountStar, AggCount, AggSum, AggMin, AggMax, AggAvg}
	splits := []int{0, 1, 17, 500, 999, 1000}
	for _, kind := range kinds {
		// Each state is one group's: group 0 of a one-group column, fed a
		// value at a time.
		newState := func(vals []value.Value) *aggColumn {
			c := &aggColumn{kind: kind}
			c.reserve(1)
			c.grow()
			for i := range vals {
				c.fold([]int32{0}, vals[i:i+1], nil, nil)
			}
			return c
		}
		result := func(c *aggColumn) value.Value {
			v, err := c.result(0)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		into := []int32{0}
		serial := newState(vals)
		want := result(serial)
		for _, split := range splits {
			a, b := newState(vals[:split]), newState(vals[split:])
			a.merge(b, into)
			got := result(a)
			if got.Kind == value.KindFloat && want.Kind == value.KindFloat {
				diff := math.Abs(got.F - want.F)
				if diff > 1e-9*math.Max(math.Abs(want.F), 1) {
					t.Errorf("%v split %d: merged %v, serial %v", kind, split, got, want)
				}
				continue
			}
			if got.Kind != want.Kind || value.Compare(got, want) != 0 {
				t.Errorf("%v split %d: merged %v (%v), serial %v (%v)", kind, split, got, want, got.Kind, want.Kind)
			}
		}
		// Merging a fresh (empty) partial must be a no-op — the empty-morsel
		// worker case.
		serial.merge(newState(nil), into)
		if got := result(serial); got.Kind != want.Kind || (got.Kind != value.KindFloat && value.Compare(got, want) != 0) ||
			(got.Kind == value.KindFloat && got.F != want.F) {
			t.Errorf("%v: merging an empty state changed the result: %v -> %v", kind, want, got)
		}
		// And the reverse: an empty final absorbing a partial adopts it.
		empty := newState(nil)
		empty.merge(serial, into)
		if got := result(empty); got.Kind != want.Kind || (got.Kind != value.KindFloat && value.Compare(got, want) != 0) {
			t.Errorf("%v: empty state absorbing a partial lost it: want %v got %v", kind, want, got)
		}
	}
}

// TestParallelHashAggregateMatchesSerial proves the hash partial→final path:
// the parallel aggregate over chopped-up morsels (including injected empty
// ones) returns the serial operator's rows, in the serial operator's order,
// for single-group and many-group shapes.
func TestParallelHashAggregateMatchesSerial(t *testing.T) {
	for _, groups := range []int{1, 73} {
		for _, workers := range []int{2, 3, 8} {
			t.Run(fmt.Sprintf("groups=%d/workers=%d", groups, workers), func(t *testing.T) {
				rows := testRows(5000, groups)
				aggs := allAggSpecs()
				serialOp := NewHashAggregate(NewValuesScan(testSchema(), rows), []int{0}, aggs)
				want, err := DrainBatches(nil, serialOp)
				if err != nil {
					t.Fatal(err)
				}
				src := &valuesMorseler{ValuesScan: NewValuesScan(testSchema(), rows), chunk: 617, emptyEvery: 3}
				par, ok := NewParallelHashAggregate(src, nil, []int{0}, aggs, workers)
				if !ok {
					t.Fatal("NewParallelHashAggregate refused a partitionable source")
				}
				got, err := DrainBatches(nil, par)
				if err != nil {
					t.Fatal(err)
				}
				rowsMatch(t, got, want, 1e-9)
			})
		}
	}
}

// TestParallelHashAggregateGlobalEmpty: a global aggregate (no GROUP BY)
// over morsels that all filter to nothing still yields its single row, like
// the serial operator.
func TestParallelHashAggregateGlobalEmpty(t *testing.T) {
	rows := testRows(4000, 10)
	aggs := allAggSpecs()
	never := expr.NewBinary(expr.OpLt, expr.NewColumn(1, "n"), expr.NewConst(value.NewInt(-1)))
	build := func(src Operator) Operator {
		return NewFilter(src, never)
	}
	serial := NewHashAggregate(NewFilter(NewValuesScan(testSchema(), rows), never), nil, aggs)
	want, err := DrainBatches(nil, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 {
		t.Fatalf("serial global aggregate over empty input returned %d rows", len(want))
	}
	src := &valuesMorseler{ValuesScan: NewValuesScan(testSchema(), rows), chunk: 500}
	par, ok := NewParallelHashAggregate(src, build, nil, aggs, 4)
	if !ok {
		t.Fatal("NewParallelHashAggregate refused a partitionable source")
	}
	got, err := DrainBatches(nil, par)
	if err != nil {
		t.Fatal(err)
	}
	rowsMatch(t, got, want, 1e-9)
}

// TestParallelStreamAggregateMatchesSerial proves the ordered partial-run
// combining, with morsel boundaries deliberately chopping groups mid-run so
// every seam merge executes.
func TestParallelStreamAggregateMatchesSerial(t *testing.T) {
	// Grouped input: runs of equal keys with run lengths that collide with
	// the chunk size in every phase.
	var rows []Row
	for g := 0; g < 40; g++ {
		runLen := 37 + g*11%150
		for i := 0; i < runLen; i++ {
			rows = append(rows, Row{
				value.NewInt(int64(g)),
				value.NewInt(int64(i)),
				value.NewFloat(float64(g*1000 + i)),
			})
		}
	}
	aggs := allAggSpecs()
	serial := NewStreamAggregate(NewValuesScan(testSchema(), rows), []int{0}, aggs)
	want, err := DrainBatches(nil, serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{64, 97, 1024} {
		src := &valuesMorseler{ValuesScan: NewValuesScan(testSchema(), rows), chunk: chunk, emptyEvery: 4}
		par, ok := NewParallelStreamAggregate(src, nil, []int{0}, aggs, 4)
		if !ok {
			t.Fatalf("chunk %d: NewParallelStreamAggregate refused a partitionable source", chunk)
		}
		got, err := DrainBatches(nil, par)
		if err != nil {
			t.Fatal(err)
		}
		rowsMatch(t, got, want, 1e-9)
	}
}

// TestParallelMergeMatchesSerial proves ParallelMerge reproduces the serial
// Filter/Project pipeline's rows in the serial order, byte for byte.
func TestParallelMergeMatchesSerial(t *testing.T) {
	rows := testRows(6000, 50)
	pred := expr.NewBinary(expr.OpGt, expr.NewColumn(2, "x"), expr.NewConst(value.NewFloat(300)))
	exprs := []expr.Expr{expr.NewColumn(1, "n"), expr.NewColumn(2, "x")}
	names := []string{"n", "x"}
	serial := NewProject(NewFilter(NewValuesScan(testSchema(), rows), pred), exprs, names)
	want, err := DrainBatches(nil, serial)
	if err != nil {
		t.Fatal(err)
	}
	build := func(src Operator) Operator {
		return NewProject(NewFilter(src, pred), exprs, names)
	}
	src := &valuesMorseler{ValuesScan: NewValuesScan(testSchema(), rows), chunk: 433}
	par, ok := NewParallelMerge(src, build, 4)
	if !ok {
		t.Fatal("NewParallelMerge refused a partitionable source")
	}
	got, err := DrainBatches(nil, par)
	if err != nil {
		t.Fatal(err)
	}
	rowsMatch(t, got, want, 0)
}

// TestParallelSortMatchesSerial proves that a Sort over a ParallelMerge of
// morsels, some of them empty, reproduces the serial stable sort exactly,
// including the relative order of equal keys.
func TestParallelSortMatchesSerial(t *testing.T) {
	rows := testRows(5000, 7)
	// Sort on the group column only: heavy duplication, so stability is
	// actually exercised (column 1 disambiguates the input order).
	keys := []SortKey{{Col: 0, Desc: true}}
	serial := NewSort(NewValuesScan(testSchema(), rows), keys)
	want, err := DrainBatches(nil, serial)
	if err != nil {
		t.Fatal(err)
	}
	src := &valuesMorseler{ValuesScan: NewValuesScan(testSchema(), rows), chunk: 391, emptyEvery: 5}
	par, ok := NewSort(src, keys).ParallelForm(src, nil, 4)
	if !ok {
		t.Fatal("Sort.ParallelForm refused a partitionable source")
	}
	got, err := DrainBatches(nil, par)
	if err != nil {
		t.Fatal(err)
	}
	rowsMatch(t, got, want, 0)
}

// TestParallelMergeEarlyClose: closing a parallel pipeline before draining it
// (a Limit parent stopping early) must shut the worker pool down without
// hanging, and re-opening must replay from the start.
func TestParallelMergeEarlyClose(t *testing.T) {
	rows := testRows(8000, 50)
	src := &valuesMorseler{ValuesScan: NewValuesScan(testSchema(), rows), chunk: 128}
	par, ok := NewParallelMerge(src, nil, 4)
	if !ok {
		t.Fatal("NewParallelMerge refused a partitionable source")
	}
	for round := 0; round < 3; round++ {
		if err := par.Open(); err != nil {
			t.Fatal(err)
		}
		b, k, err := par.NextBatch()
		if err != nil || !k {
			t.Fatalf("round %d: no first batch: %v", round, err)
		}
		if got := b.Row(0)[1].Int(); got != 0 {
			t.Fatalf("round %d: first row n=%d, want 0 (replay from start)", round, got)
		}
		if err := par.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelMergeRetainedBatchesMatchSerial guards the retain side of the
// Morseler contract. ParallelMerge buffers its morsels' batches, so it splits
// its source with retain and every batch owns its columns: all the batches of
// a table scan several batches to a morsel, held until the last one is
// pulled and only then read, equal the serial scan row for row.
func TestParallelMergeRetainedBatchesMatchSerial(t *testing.T) {
	_, tbl, _ := splitFixture(t, 5*DefaultMorselRows)
	want := drain(t, NewSeqScan(tbl, nil))
	par, ok := NewParallelMerge(NewSeqScan(tbl, nil), nil, 2)
	if !ok {
		t.Fatal("NewParallelMerge refused a table scan")
	}
	if err := par.Open(); err != nil {
		t.Fatal(err)
	}
	var held []*Batch
	for {
		b, ok, err := par.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		held = append(held, b)
	}
	var got []Row
	for _, b := range held {
		got = b.AppendRows(got)
	}
	if err := par.Close(); err != nil {
		t.Fatal(err)
	}
	rowsMatch(t, got, want, 0)
}

// TestParallelAggregateMorselsReleaseBuffers: an aggregate breaker splits
// its source as it opens, its morsels refill one set of column buffers across
// a morsel's batches and return it when the morsel closes, and the breaker
// drops the morsels as it closes. A parallel aggregate plan opened, drained
// and closed 100 times — as the plan cache leases one plan over and over —
// answers the same every time, keeps no morsel between executions, and ends
// with the live heap where it started.
func TestParallelAggregateMorselsReleaseBuffers(t *testing.T) {
	_, tbl, _ := splitFixture(t, 4*DefaultMorselRows)
	aggs := allAggSpecs()
	want, err := DrainBatches(nil, NewHashAggregate(NewSeqScan(tbl, nil), []int{1}, aggs))
	if err != nil {
		t.Fatal(err)
	}
	par, ok := NewParallelHashAggregate(NewSeqScan(tbl, nil), nil, []int{1}, aggs, 2)
	if !ok {
		t.Fatal("NewParallelHashAggregate refused a table scan")
	}
	if parts, _ := NewSeqScan(tbl, nil).Morsels(DefaultMorselRows, false); len(parts) < 3 {
		t.Fatalf("%d morsels; the test needs several, each of several batches", len(parts))
	}
	var ms runtime.MemStats
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first only moves the fill pool to its victim cache
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	start := liveHeap()
	for lease := 0; lease < 100; lease++ {
		got, err := DrainBatches(nil, par)
		if err != nil {
			t.Fatal(err)
		}
		if lease%25 == 0 {
			rowsMatch(t, got, want, 1e-9)
		}
	}
	end := liveHeap()
	if par.parts != nil {
		t.Errorf("an idle plan keeps %d morsels", len(par.parts))
	}
	if end > start+256<<10 {
		t.Errorf("live heap grew %d KiB over 100 leases of one plan", (end-start)>>10)
	}
}
