package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"oldelephant/internal/expr"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// rleValues is a test source that emits its rows in batches whose every
// column is run-length encoded over exactly equal values (same kind, same
// bits) — unlike vector.Compress, which merges 1 and 1.0 into one run.
type rleValues struct {
	*ValuesScan
}

func (r *rleValues) NextBatch() (*Batch, bool, error) {
	if r.pos >= len(r.Rows) {
		return nil, false, nil
	}
	end := min(r.pos+DefaultBatchSize, len(r.Rows))
	rows := r.Rows[r.pos:end]
	r.pos = end
	cols := make([]*vector.Vector, len(r.Cols))
	for c := range cols {
		var vals []value.Value
		var ends []int
		for i, row := range rows {
			if len(vals) == 0 || row[c] != vals[len(vals)-1] {
				vals = append(vals, row[c])
				ends = append(ends, i+1)
				continue
			}
			ends[len(ends)-1] = i + 1
		}
		cols[c] = vector.NewRLE(vals, ends)
	}
	return NewBatchFromVectors(cols), true, nil
}

// groupingRef is the naive grouping the engines are held to: rows sorted
// stably on their grouping keys (value.EncodeKey, which defines the groups:
// 1 and 1.0 are one, 2^53 and 2^53+1 are two although value.Compare finds
// each equal to the FLOAT 2^53), equal keys folded in input order. No hash
// table, no partials, no runs.
func groupingRef(rows []Row, groupBy []int, aggs []AggSpec) []Row {
	idx := make([]int, len(rows))
	keys := make([]string, len(rows))
	for i, row := range rows {
		idx[i] = i
		var key []value.Value
		for _, g := range groupBy {
			key = append(key, row[g])
		}
		keys[i] = string(value.EncodeKey(nil, key))
	}
	cmpKeys := func(a, b int) int { return strings.Compare(keys[a], keys[b]) }
	slices.SortStableFunc(idx, cmpKeys)
	var out []Row
	for lo := 0; lo < len(idx) || (lo == 0 && len(groupBy) == 0); {
		hi := lo + 1
		for hi < len(idx) && cmpKeys(idx[lo], idx[hi]) == 0 {
			hi++
		}
		hi = min(hi, len(idx))
		var row Row
		if lo < len(idx) {
			for _, g := range groupBy {
				row = append(row, rows[idx[lo]][g])
			}
		}
		for _, a := range aggs {
			var count, sumI int64
			var sumF float64
			sawFloat := false
			ext := value.Null()
			for _, i := range idx[lo:hi] {
				if a.Kind == AggCountStar {
					count++
					continue
				}
				v, err := a.Arg.Eval(rows[i])
				if err != nil {
					panic(err)
				}
				if v.IsNull() {
					continue
				}
				count++
				sumF += v.Float()
				if v.Kind == value.KindFloat {
					sawFloat = true
				} else {
					sumI += v.Int()
				}
				if ext.IsNull() || (a.Kind == AggMin && value.Compare(v, ext) < 0) || (a.Kind == AggMax && value.Compare(v, ext) > 0) {
					ext = v
				}
			}
			switch a.Kind {
			case AggCountStar, AggCount:
				row = append(row, value.NewInt(count))
			case AggSum:
				switch {
				case count == 0:
					row = append(row, value.Null())
				case sawFloat:
					row = append(row, value.NewFloat(sumF))
				default:
					row = append(row, value.NewInt(sumI))
				}
			case AggAvg:
				if count == 0 {
					row = append(row, value.Null())
				} else {
					row = append(row, value.NewFloat(sumF/float64(count)))
				}
			default:
				row = append(row, ext)
			}
		}
		out = append(out, row)
		lo = hi
	}
	return out
}

// groupingRows generates rows over `keys` distinct key tuples of ncols
// group-by columns, followed by an INT argument a, a FLOAT-or-INT argument b
// and a string argument s, each sometimes NULL. Key columns mix NULL, INT,
// FLOAT values equal to an INT (the same group as it), integers around
// ±2^53 (where float64 stops telling neighbours apart) and strings. Each row
// repeats 1–3 times in a row so run-length encoded input has runs.
func groupingRows(rng *rand.Rand, keys, ncols int) []Row {
	const big = int64(1) << 53
	keyValue := func(x int64, col int) value.Value {
		if col > 0 {
			x %= 23 // later columns are low-cardinality
		}
		switch x % 13 {
		case 3:
			return value.Null()
		case 5:
			return value.NewString(fmt.Sprintf("s%d", x))
		case 7:
			return value.NewInt([]int64{big, big + 1, big + 2, -big, -big - 1}[x%5])
		case 9:
			if x%2 == 0 {
				return value.NewFloat(float64(big)) // the group of INT 2^53
			}
			return value.NewFloat(float64(x) + 0.5)
		}
		if rng.Intn(4) == 0 {
			return value.NewFloat(float64(x)) // the group of INT x
		}
		return value.NewInt(x)
	}
	var rows []Row
	for i := 0; i < keys; i++ {
		// Every tuple once in order; below 10,000 tuples as many again at
		// random.
		xs := []int64{int64(i), int64(rng.Intn(keys))}
		if keys >= 10000 {
			xs = xs[:1]
		}
		for _, x := range xs {
			row := make(Row, 0, ncols+3)
			for c := 0; c < ncols; c++ {
				row = append(row, keyValue(x, c))
			}
			a, b, s := value.NewInt(int64(rng.Intn(2001)-1000)), value.NewFloat(rng.Float64()*100-50), value.NewString(fmt.Sprintf("v%03d", rng.Intn(500)))
			switch rng.Intn(10) {
			case 0:
				a, b, s = value.Null(), value.Null(), value.Null()
			case 1:
				b = value.NewInt(int64(rng.Intn(100)))
			}
			row = append(row, a, b, s)
			for r := rng.Intn(3); r >= 0; r-- {
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func groupingSchema(ncols int) []ColumnInfo {
	var cols []ColumnInfo
	for c := 0; c < ncols; c++ {
		cols = append(cols, ColumnInfo{Name: fmt.Sprintf("k%d", c)})
	}
	return append(cols, ColumnInfo{Name: "a", Kind: value.KindInt}, ColumnInfo{Name: "b", Kind: value.KindFloat}, ColumnInfo{Name: "s", Kind: value.KindString})
}

// sameGroups holds got to want: the same rows in the same order, every value
// of the same kind; FLOATs equal to the bit, or within a relative tol.
func sameGroups(t *testing.T, name string, got, want []Row, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", name, len(got), len(want))
	}
	for i := range got {
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			ok := g == w
			if !ok && g.Kind == value.KindFloat && w.Kind == value.KindFloat {
				ok = math.Abs(g.F-w.F) <= tol*math.Max(math.Abs(w.F), 1)
			}
			if !ok {
				t.Fatalf("%s: row %d col %d: got %v (%v), want %v (%v)\ngot  %v\nwant %v", name, i, j, g, g.Kind, w, w.Kind, got[i], want[i])
			}
		}
	}
}

// TestParallelGroupingDifferential holds every form of the hash aggregate to
// the naive reference: the serial batch build, the row-at-a-time build, the
// morsel-parallel build at two workers (partials merged in morsel order) and
// the serial build over run-length encoded input (segments folded as value ×
// count). Seeded inputs cover 1–3 group columns, all five aggregates and 0
// to more than 2^17 groups.
func TestParallelGroupingDifferential(t *testing.T) {
	cases := []struct{ keys, ncols int }{
		{0, 1}, {1, 1}, {1, 3}, {7, 2}, {300, 1}, {300, 3}, {5000, 2}, {170000, 2},
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("keys=%d/cols=%d", c.keys, c.ncols), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			rows := groupingRows(rng, c.keys, c.ncols)
			schema := groupingSchema(c.ncols)
			var groupBy []int
			for k := 0; k < c.ncols; k++ {
				groupBy = append(groupBy, k)
			}
			a, b, s := expr.NewColumn(c.ncols, "a"), expr.NewColumn(c.ncols+1, "b"), expr.NewColumn(c.ncols+2, "s")
			aggs := []AggSpec{
				{Kind: AggCountStar}, {Kind: AggCount, Arg: b}, {Kind: AggSum, Arg: a}, {Kind: AggSum, Arg: b},
				{Kind: AggAvg, Arg: b}, {Kind: AggMin, Arg: a}, {Kind: AggMax, Arg: b}, {Kind: AggMin, Arg: s}, {Kind: AggMax, Arg: s},
			}
			want := groupingRef(rows, groupBy, aggs)
			if c.keys >= 1<<17 && len(want) < 1<<17 {
				t.Fatalf("only %d groups", len(want))
			}

			serial, err := DrainBatches(nil, NewHashAggregate(NewValuesScan(schema, rows), groupBy, aggs))
			if err != nil {
				t.Fatal(err)
			}
			sameGroups(t, "serial", serial, want, 0)

			byRow, err := Drain(nil, NewHashAggregate(NewValuesScan(schema, rows), groupBy, aggs))
			if err != nil {
				t.Fatal(err)
			}
			sameGroups(t, "row", byRow, want, 0)

			rle, err := DrainBatches(nil, NewHashAggregate(&rleValues{NewValuesScan(schema, rows)}, groupBy, aggs))
			if err != nil {
				t.Fatal(err)
			}
			sameGroups(t, "rle", rle, want, 1e-9)

			if len(rows) >= 2 {
				src := &valuesMorseler{ValuesScan: NewValuesScan(schema, rows), chunk: max(len(rows)/7, 1), emptyEvery: 3}
				par, ok := NewParallelHashAggregate(src, nil, groupBy, aggs, 2)
				if !ok {
					t.Fatal("NewParallelHashAggregate refused a partitionable source")
				}
				got, err := DrainBatches(nil, par)
				if err != nil {
					t.Fatal(err)
				}
				sameGroups(t, "P=2", got, want, 1e-9)
			}
		})
	}
}

// TestParallelSumOverflowIsAnError: an integer SUM that leaves int64's range
// fails with ErrSumOverflow on every accumulation path — a flat row at a
// time, a run as one multiply, partials merged, the global fold — instead
// of wrapping. A FLOAT among the values makes the sum a float sum, which
// does not fail.
func TestParallelSumOverflowIsAnError(t *testing.T) {
	schema := []ColumnInfo{{Name: "g", Kind: value.KindInt}, {Name: "x", Kind: value.KindInt}}
	x := expr.NewColumn(1, "x")
	sum := []AggSpec{{Kind: AggSum, Arg: x}}
	rowsOf := func(xs ...value.Value) []Row {
		var rows []Row
		for _, v := range xs {
			rows = append(rows, Row{value.NewInt(1), v})
		}
		return rows
	}
	i := value.NewInt
	wraps := rowsOf(i(math.MaxInt64), i(1), i(5))
	runWraps := rowsOf(i(1<<62), i(1<<62)) // one RLE run: 2^62 × 2
	negWraps := rowsOf(i(math.MinInt64), i(-1))
	fits := rowsOf(i(math.MaxInt64), i(-1), i(1))
	floats := rowsOf(i(math.MaxInt64), i(1), value.NewFloat(1.5))

	type plan struct {
		name string
		run  func(rows []Row, groupBy []int) ([]Row, error)
	}
	plans := []plan{
		{"hash batch", func(rows []Row, groupBy []int) ([]Row, error) {
			return DrainBatches(nil, NewHashAggregate(NewValuesScan(schema, rows), groupBy, sum))
		}},
		{"hash row", func(rows []Row, groupBy []int) ([]Row, error) {
			return Drain(nil, NewHashAggregate(NewValuesScan(schema, rows), groupBy, sum))
		}},
		{"hash rle", func(rows []Row, groupBy []int) ([]Row, error) {
			return DrainBatches(nil, NewHashAggregate(&rleValues{NewValuesScan(schema, rows)}, groupBy, sum))
		}},
		{"hash P=2", func(rows []Row, groupBy []int) ([]Row, error) {
			par, _ := NewParallelHashAggregate(&valuesMorseler{ValuesScan: NewValuesScan(schema, rows), chunk: 1}, nil, groupBy, sum, 2)
			return DrainBatches(nil, par)
		}},
		{"stream batch", func(rows []Row, groupBy []int) ([]Row, error) {
			return DrainBatches(nil, NewStreamAggregate(NewValuesScan(schema, rows), groupBy, sum))
		}},
		{"stream row", func(rows []Row, groupBy []int) ([]Row, error) {
			return Drain(nil, NewStreamAggregate(NewValuesScan(schema, rows), groupBy, sum))
		}},
		{"stream rle", func(rows []Row, groupBy []int) ([]Row, error) {
			return DrainBatches(nil, NewStreamAggregate(&rleValues{NewValuesScan(schema, rows)}, groupBy, sum))
		}},
		{"stream P=2", func(rows []Row, groupBy []int) ([]Row, error) {
			par, _ := NewParallelStreamAggregate(&valuesMorseler{ValuesScan: NewValuesScan(schema, rows), chunk: 1}, nil, groupBy, sum, 2)
			return DrainBatches(nil, par)
		}},
	}
	for _, p := range plans {
		for _, groupBy := range [][]int{nil, {0}} {
			name := fmt.Sprintf("%s/groupBy=%v", p.name, groupBy)
			for _, rows := range [][]Row{wraps, runWraps, negWraps} {
				got, err := p.run(rows, groupBy)
				if !errors.Is(err, ErrSumOverflow) {
					t.Errorf("%s: SUM(%v) = %v, %v; want ErrSumOverflow", name, rows, got, err)
				}
			}
			got, err := p.run(fits, groupBy)
			if err != nil || got[0][len(groupBy)] != i(math.MaxInt64) {
				t.Errorf("%s: SUM(max, -1, 1) = %v, %v; want %d", name, got, err, int64(math.MaxInt64))
			}
			got, err = p.run(floats, groupBy)
			if want := value.NewFloat(float64(math.MaxInt64) + 2.5); err != nil || got[0][len(groupBy)] != want {
				t.Errorf("%s: SUM(max, 1, 1.5) = %v, %v; want %v", name, got, err, want)
			}
		}
	}
}

// panicking is a pipeline stage that panics on its first batch.
type panicking struct{ Operator }

func (p panicking) NextBatch() (*Batch, bool, error) { panic("injected worker fault") }

// TestParallelWorkerPanicIsAnError: a panic on a worker goroutine fails the
// query with an error naming the operator and the morsel, leaves no worker
// behind, and the operator answers correctly when opened again.
func TestParallelWorkerPanicIsAnError(t *testing.T) {
	rows := testRows(5000, 73)
	aggs := allAggSpecs()
	want, err := DrainBatches(nil, NewHashAggregate(NewValuesScan(testSchema(), rows), []int{0}, aggs))
	if err != nil {
		t.Fatal(err)
	}
	armed := true
	pipe := func(src Operator) Operator {
		// The pipeline is also built once over the whole source, at plan time.
		if vs, ok := src.(*ValuesScan); ok && armed && len(vs.Rows) > 0 && vs.Rows[0][1].I == 2000 {
			return panicking{src}
		}
		return src
	}
	before := runtime.NumGoroutine()
	par, ok := NewParallelHashAggregate(&valuesMorseler{ValuesScan: NewValuesScan(testSchema(), rows), chunk: 500}, pipe, []int{0}, aggs, 2)
	if !ok {
		t.Fatal("NewParallelHashAggregate refused a partitionable source")
	}
	_, err = DrainBatches(nil, par)
	if err == nil || !strings.Contains(err.Error(), "ParallelHashAggregate worker panicked on morsel 4 of 10") ||
		!strings.Contains(err.Error(), "injected worker fault") {
		t.Fatalf("err = %v, want the ParallelHashAggregate worker panic on morsel 4", err)
	}
	if err := par.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed query, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	armed = false
	got, err := DrainBatches(nil, par)
	if err != nil {
		t.Fatal(err)
	}
	rowsMatch(t, got, want, 1e-9)
}

// TestGroupTableAllocations pins the group table's allocations: a build of
// 100,000 groups (the shape of a wide GROUP BY two-column view) allocates
// when its slices double and in finish, O(log groups) times, and nothing per
// group or per batch.
func TestGroupTableAllocations(t *testing.T) {
	const groups = 100000
	schema := []ColumnInfo{{Name: "d", Kind: value.KindDate}, {Name: "k", Kind: value.KindInt}, {Name: "x", Kind: value.KindFloat}}
	var batches []*Batch
	for lo := 0; lo < groups; lo += DefaultBatchSize {
		b := NewBatch(len(schema), DefaultBatchSize)
		for i := lo; i < min(lo+DefaultBatchSize, groups); i++ {
			b.AppendRow(Row{value.NewDate(int64(8000 + i%2500)), value.NewInt(int64(i / 2500)), value.NewFloat(float64(i))})
		}
		batches = append(batches, b)
	}
	x := expr.NewColumn(2, "x")
	aggs := []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: x}, {Kind: AggMax, Arg: x}}
	var n int
	allocs := testing.AllocsPerRun(3, func() {
		tbl := newGroupTable([]int{0, 1}, aggs)
		for _, b := range batches {
			if err := tbl.consumeBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		res, err := tbl.finish()
		if err != nil {
			t.Fatal(err)
		}
		n = res.len()
	})
	if n != groups {
		t.Fatalf("%d groups, want %d", n, groups)
	}
	// 11 doublings (from 64) of 14 slices and of the scratch, the index's 8
	// rehashes, finish's sort and slab: about 200. A heap object per group
	// would add 100,000, one per batch 98.
	if allocs > 300 {
		t.Fatalf("%v allocations for %d groups, want O(log groups)", allocs, groups)
	}
	t.Logf("%v allocations for %d groups", allocs, groups)
}
