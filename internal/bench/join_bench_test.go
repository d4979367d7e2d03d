package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

// The hash-join microbenchmarks: the same equi-join scan-filter-aggregate SQL
// over the same loaded tables, compared across the row-at-a-time HashJoin
// (the oracle), the serial VectorizedHashJoin, and the morsel-parallel form
// (probe pipeline through the shared table + parallel build). The probe side
// is fixed at 150k rows; the build side varies in size and key cardinality.
//
//	go test ./internal/bench -bench HashJoin

const joinProbeRows = benchRows // 150k facts

// joinBenchSQL joins every fact to exactly one dim row, filters ~75% of the
// facts and aggregates into a handful of groups — the workload's Q4-Q7 shape.
// OPTION(HASH JOIN) pins the algorithm so the benchmark cannot silently turn
// into an index-nested-loop plan.
const joinBenchSQL = "SELECT grp, COUNT(*), SUM(price) FROM facts, dims " +
	"WHERE k = id AND price < 850 GROUP BY grp OPTION(HASH JOIN)"

// newJoinEngine loads a facts/dims star pair: facts(fid, k, price) with k
// uniform over the dims key range, dims(id, grp, weight) with dimRows
// distinct keys.
func newJoinEngine(opts engine.Options, dimRows int) (*engine.Engine, error) {
	e := engine.New(opts)
	if _, err := e.Execute("CREATE TABLE facts (fid INT, k INT, price FLOAT, PRIMARY KEY (fid))"); err != nil {
		return nil, err
	}
	if _, err := e.Execute("CREATE TABLE dims (id INT, grp INT, weight FLOAT, PRIMARY KEY (id))"); err != nil {
		return nil, err
	}
	facts := make([][]value.Value, joinProbeRows)
	for i := range facts {
		facts[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % dimRows)),
			value.NewFloat(float64(100 + i%1000)),
		}
	}
	if err := e.BulkLoad("facts", facts); err != nil {
		return nil, err
	}
	dims := make([][]value.Value, dimRows)
	for i := range dims {
		dims[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 25)),
			value.NewFloat(float64(i)),
		}
	}
	if err := e.BulkLoad("dims", dims); err != nil {
		return nil, err
	}
	return e, nil
}

// joinEngineCache memoizes the loaded engines per (row-mode, dims, workers).
var (
	joinEngMu    sync.Mutex
	joinEngCache = map[string]*engine.Engine{}
)

func joinEngine(tb testing.TB, rowMode bool, dimRows, workers int) *engine.Engine {
	tb.Helper()
	key := fmt.Sprintf("row=%v dims=%d p=%d", rowMode, dimRows, workers)
	joinEngMu.Lock()
	defer joinEngMu.Unlock()
	if e, ok := joinEngCache[key]; ok {
		return e
	}
	e, err := newJoinEngine(engine.Options{DisableVectorized: rowMode, Parallelism: workers}, dimRows)
	if err != nil {
		tb.Fatal(err)
	}
	joinEngCache[key] = e
	return e
}

// joinBenchDims are the build-side sizes (and, since keys are unique, key
// cardinalities) the family sweeps: a cache-resident build and one ~1/3 the
// probe size.
var joinBenchDims = []int{1000, 50000}

func BenchmarkHashJoinRow(b *testing.B) {
	for _, dims := range joinBenchDims {
		b.Run(fmt.Sprintf("build-%d", dims), func(b *testing.B) {
			runQueryBench(b, joinEngine(b, true, dims, 1), joinBenchSQL)
		})
	}
}

func BenchmarkHashJoinVectorized(b *testing.B) {
	for _, dims := range joinBenchDims {
		b.Run(fmt.Sprintf("build-%d", dims), func(b *testing.B) {
			runQueryBench(b, joinEngine(b, false, dims, 1), joinBenchSQL)
		})
	}
}

// BenchmarkHashJoinParallel is the worker sweep on the large build side: the
// probe pipeline parallelizes through the join and the build hashes
// morsel-parallel into per-worker partitions.
func BenchmarkHashJoinParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			runQueryBench(b, joinEngine(b, false, 50000, workers), joinBenchSQL)
		})
	}
}

// TestHashJoinBenchPlansAgree keeps the join benchmarks honest: every
// benchmarked configuration must run a hash-join plan and return the
// row-at-a-time engine's rows (serial modes exactly, parallel modes within
// the float-sum tolerance).
func TestHashJoinBenchPlansAgree(t *testing.T) {
	for _, dims := range joinBenchDims {
		want, err := joinEngine(t, true, dims, 1).Query(joinBenchSQL)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Fatal("join benchmark query returned no rows")
		}
		if !strings.Contains(want.Plan, "HashJoin") {
			t.Fatalf("join benchmark is not hash-joining: %s", want.Plan)
		}
		got, err := joinEngine(t, false, dims, 1).Query(joinBenchSQL)
		if err != nil {
			t.Fatal(err)
		}
		if got.Plan != want.Plan {
			t.Errorf("dims=%d: vectorized plan differs: %s vs %s", dims, got.Plan, want.Plan)
		}
		if g, w := formatRows(got.Rows), formatRows(want.Rows); g != w {
			t.Errorf("dims=%d: serial vectorized join diverges from row engine:\n%s\nvs\n%s",
				dims, clip(g), clip(w))
		}
	}
	want, err := joinEngine(t, false, 50000, 1).Query(joinBenchSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := joinEngine(t, false, 50000, workers).Query(joinBenchSQL)
		if err != nil {
			t.Fatal(err)
		}
		if msg := rowsApproxEqual(got.Rows, want.Rows); msg != "" {
			t.Errorf("workers=%d: parallel join plan differs from serial: %s", workers, msg)
		}
	}
}

// The band-join microbenchmarks: the three shapes Row(Col) rewrites produce,
// each an IndexNestedLoopJoin over an inner table clustered on f.
//
//	one_outer       one outer row whose band covers the whole inner table
//	                (Q3 at selectivity 1.0): one seek, every inner row
//	rle_outer       a c-table of runs, f BETWEEN o.f AND o.f + o.c - 1
//	                (Q4's join): chained bands, one seek per outer batch
//	dense_equality  d.f = o.f between two dense tables (Q6's second join)
//
//	go test ./internal/bench -run XXX -bench BandJoin
const bandRows = 60_000

// bandJoinSQL is each shape's statement; LOOP JOIN keeps the planner from
// hash-joining the equality.
var bandJoinSQL = map[string]string{
	"one_outer":      "SELECT COUNT(*), SUM(d.v) FROM band_one o, band_dense d WHERE d.f BETWEEN o.f AND o.f + o.c - 1",
	"rle_outer":      "SELECT COUNT(*), o.v, SUM(d.v) FROM band_rle o, band_dense d WHERE d.f BETWEEN o.f AND o.f + o.c - 1 GROUP BY o.v",
	"dense_equality": "SELECT COUNT(*), SUM(d.v + o.v) FROM band_eq o, band_dense d WHERE d.f = o.f OPTION(LOOP JOIN)",
}

// newBandEngine loads the inner table band_dense(f, v) with f = 0..bandRows-1
// and the three outer tables.
func newBandEngine(opts engine.Options) (*engine.Engine, error) {
	e := engine.New(opts)
	for _, ddl := range []string{
		"CREATE TABLE band_dense (f INT, v INT, PRIMARY KEY (f))",
		"CREATE TABLE band_eq (f INT, v INT, PRIMARY KEY (f))",
		"CREATE TABLE band_rle (f INT, v INT, c INT, PRIMARY KEY (f))",
		"CREATE TABLE band_one (f INT, c INT, PRIMARY KEY (f))",
	} {
		if _, err := e.Execute(ddl); err != nil {
			return nil, err
		}
	}
	const run = 50
	var dense, runs [][]value.Value
	for f := 0; f < bandRows; f++ {
		dense = append(dense, []value.Value{value.NewInt(int64(f)), value.NewInt(int64(f % 97))})
		if f%run == 0 {
			runs = append(runs, []value.Value{value.NewInt(int64(f)), value.NewInt(int64(f / run % 7)), value.NewInt(run)})
		}
	}
	loads := map[string][][]value.Value{
		"band_dense": dense, "band_eq": dense, "band_rle": runs,
		"band_one": {{value.NewInt(0), value.NewInt(bandRows)}},
	}
	for name, rows := range loads {
		if err := e.BulkLoad(name, rows); err != nil {
			return nil, err
		}
	}
	return e, nil
}

var (
	bandEngMu    sync.Mutex
	bandEngCache = map[bool]*engine.Engine{}
)

// bandEngine memoizes the loaded engine per executor (row or vectorized).
func bandEngine(tb testing.TB, rowMode bool) *engine.Engine {
	tb.Helper()
	bandEngMu.Lock()
	defer bandEngMu.Unlock()
	if e, ok := bandEngCache[rowMode]; ok {
		return e
	}
	e, err := newBandEngine(engine.Options{DisableVectorized: rowMode})
	if err != nil {
		tb.Fatal(err)
	}
	bandEngCache[rowMode] = e
	return e
}

func BenchmarkBandJoin(b *testing.B) {
	for _, name := range []string{"one_outer", "rle_outer", "dense_equality"} {
		b.Run(name, func(b *testing.B) {
			e := bandEngine(b, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(bandJoinSQL[name]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bandRows)*float64(b.N)/b.Elapsed().Seconds(), "inner-rows/s")
		})
	}
}

// TestBandJoinBenchPlansAgree keeps the band-join benchmarks honest: each
// shape plans an index nested-loop join and returns the row engine's rows.
func TestBandJoinBenchPlansAgree(t *testing.T) {
	for name, q := range bandJoinSQL {
		want, err := bandEngine(t, true).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bandEngine(t, false).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(got.Plan, "IndexNLJoin") || got.Plan != want.Plan {
			t.Errorf("%s: plans %q (vectorized) and %q (row), want the same IndexNLJoin", name, got.Plan, want.Plan)
		}
		if len(want.Rows) == 0 || want.Rows[0][0].Int() == 0 {
			t.Errorf("%s: the join matched nothing: %v", name, want.Rows)
		}
		if g, w := formatRows(got.Rows), formatRows(want.Rows); g != w {
			t.Errorf("%s: batch join diverges from the row engine:\n%s\nvs\n%s", name, clip(g), clip(w))
		}
	}
}
