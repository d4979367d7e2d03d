package bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/plan"
)

// Parallel-executor proofs and scaling benchmarks. The differential axis
// (row vs flat vs compressed × serial vs parallel) lives in
// TestVectorizedRowDifferential; this file adds what that matrix cannot see:
// bit-level determinism across repeated parallel runs, exact ordering for
// ORDER BY/LIMIT plans, and the worker-count scaling microbenchmark.

// parallelItemsEngine caches items-table engines per worker count.
var (
	parItemsMu  sync.Mutex
	parItemsEng = map[int]*engine.Engine{}
)

func parallelItemsEngine(tb testing.TB, workers int) *engine.Engine {
	tb.Helper()
	parItemsMu.Lock()
	defer parItemsMu.Unlock()
	if e, ok := parItemsEng[workers]; ok {
		return e
	}
	e, err := newItemsEngine(engine.Options{Parallelism: workers})
	if err != nil {
		tb.Fatal(err)
	}
	parItemsEng[workers] = e
	return e
}

// TestParallelDeterminism runs every workload query 25 times on the
// parallel harnesses and requires bit-identical results each iteration —
// including float aggregates, which the morsel-order merge makes
// reproducible even though workers race for morsels. Run under -race in CI
// (the workload below is exactly what the parallel operators do
// concurrently).
func TestParallelDeterminism(t *testing.T) {
	const iterations = 25
	modes, parallel := parallelModes(t)
	for _, mode := range parallel {
		h := modes[mode]
		for _, q := range Queries() {
			spec := h.specs()[q]
			query, _ := spec.resolve(h, defaultSelectivity)
			var want string
			for i := 0; i < iterations; i++ {
				res, err := h.Engine.Query(query)
				if err != nil {
					t.Fatalf("%s %s iter %d: %v", mode, q, i, err)
				}
				got := formatRows(res.Rows)
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s %s: SQL results diverged between iterations 0 and %d:\n%s\nvs\n%s",
						mode, q, i, clip(want), clip(got))
				}
			}
		}
	}
}

// TestParallelJoinDeterminism runs join plans — equi-join + aggregate and
// join + ORDER BY/LIMIT, both with morsel-parallel probe pipelines through
// the shared hash table and a parallel build — 25 times per parallel mode and
// requires bit-identical results each iteration, float sums included: the
// build merges partitions in morsel order and the probe merges emit in morsel
// order, so workers racing for morsels must not be observable.
func TestParallelJoinDeterminism(t *testing.T) {
	const iterations = 25
	probes := []string{
		"SELECT c_nationkey, COUNT(*), SUM(l_extendedprice) FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey GROUP BY c_nationkey",
		"SELECT l_orderkey, l_linenumber, o_orderdate FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1996-06-01' ORDER BY o_orderdate, l_orderkey, l_linenumber LIMIT 200",
	}
	modes, parallel := parallelModes(t)
	for _, mode := range parallel {
		h := modes[mode]
		for _, q := range probes {
			var want string
			for i := 0; i < iterations; i++ {
				res, err := h.Engine.Query(q)
				if err != nil {
					t.Fatalf("%s iter %d: %v\nSQL: %s", mode, i, err, q)
				}
				got := formatRows(res.Rows)
				if i == 0 {
					if len(res.Rows) == 0 {
						t.Fatalf("%s: join determinism probe returned no rows\nSQL: %s", mode, q)
					}
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s: join results diverged between iterations 0 and %d:\n%s\nvs\n%s\nSQL: %s",
						mode, i, clip(want), clip(got), q)
				}
			}
		}
	}
}

// TestParallelOrderByLimitExactOrder holds parallel plans that promise exact
// ordering to that promise: non-aggregating pipelines (ParallelMerge
// reassembles morsel order) and ORDER BY/LIMIT plans (ParallelSort's K-way
// merge reproduces the serial stable sort, ties included) must match the
// serial engine byte for byte — no sorted-set weakening, no tolerance. The
// probed rows come straight from the scan, so even float columns must be
// bit-identical.
func TestParallelOrderByLimitExactOrder(t *testing.T) {
	serial := parallelItemsEngine(t, 1)
	probes := []string{
		// ParallelMerge: filter pipeline, morsel-order reassembly.
		"SELECT id, supp, price FROM items WHERE price > 950",
		// ParallelSort under a serial Limit.
		"SELECT id, supp, price FROM items WHERE price > 600 ORDER BY price DESC, id LIMIT 100",
		// Heavy duplication on the sort key: stability across morsel seams.
		"SELECT supp, price FROM items WHERE price < 150 ORDER BY supp LIMIT 500",
		// ORDER BY the full scan with OFFSET pagination over the merge.
		"SELECT supp, id FROM items ORDER BY supp, id LIMIT 50 OFFSET 1000",
	}
	for _, workers := range []int{2, 4} {
		par := parallelItemsEngine(t, workers)
		for _, q := range probes {
			want, err := serial.Query(q)
			if err != nil {
				t.Fatalf("serial %q: %v", q, err)
			}
			got, err := par.Query(q)
			if err != nil {
				t.Fatalf("P=%d %q: %v", workers, q, err)
			}
			if g, w := formatRows(got.Rows), formatRows(want.Rows); g != w {
				t.Errorf("P=%d %q: exact order broken\nparallel (%d rows):\n%s\nserial (%d rows):\n%s",
					workers, q, len(got.Rows), clip(g), len(want.Rows), clip(w))
			}
		}
		// Aggregates compare with tolerance (float partials fold in morsel
		// order) but the group order must still be exact.
		agg := "SELECT supp, COUNT(*), SUM(price) FROM items WHERE ship > DATE '1995-03-01' GROUP BY supp"
		want, err := serial.Query(agg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Query(agg)
		if err != nil {
			t.Fatal(err)
		}
		if msg := rowsApproxEqual(got.Rows, want.Rows); msg != "" {
			t.Errorf("P=%d aggregate differs (order-sensitive compare): %s", workers, msg)
		}
	}
}

// TestParallelSerialKnobIdentity pins the Options.Parallelism contract: 1
// (and the row engine, always) runs the serial plans; 0 resolves to
// GOMAXPROCS; the harness default stays serial.
func TestParallelSerialKnobIdentity(t *testing.T) {
	if got := parallelItemsEngine(t, 1).Parallelism(); got != 1 {
		t.Errorf("Parallelism(1) engine reports %d workers", got)
	}
	e := engine.New(engine.Options{})
	if got, want := e.Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default engine reports %d workers, want GOMAXPROCS=%d", got, want)
	}
	row := engine.New(engine.Options{DisableVectorized: true, Parallelism: 8})
	if got := row.Parallelism(); got != 1 {
		t.Errorf("row engine reports %d workers, want 1 (row path is always serial)", got)
	}
	h := cachedHarness(t, func(c *Config) {})
	if got := h.Engine.Parallelism(); got != 1 {
		t.Errorf("default harness engine reports %d workers, want 1", got)
	}
}

// parallelRunsScanPlan is runsScanPlan after the morsel-parallel rewrite:
// the same SeqScan → filter → aggregate over the 150k-row runs table, its
// scan split into leaf-range morsels for the given worker count.
func parallelRunsScanPlan(tb testing.TB, workers int) exec.Operator {
	tb.Helper()
	root, _ := plan.Parallelize(runsScanPlan(tb, false), workers)
	return root
}

// BenchmarkParallelScanFilterAgg is the worker-count scaling benchmark on
// the 150k-row scan-filter-aggregate: over the items table, whose unique key
// leaves its scan's vectors flat, and over the runs table, whose scan
// run-encodes its clustered-key prefix, each at 1/2/4/8 workers.
//
//	go test ./internal/bench -bench ParallelScanFilterAgg
func BenchmarkParallelScanFilterAgg(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("flat/workers-%d", workers), func(b *testing.B) {
			e := parallelItemsEngine(b, workers)
			runQueryBench(b, e, scanFilterAggSQL)
		})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("compressed/workers-%d", workers), func(b *testing.B) {
			runsEngine(b) // load outside the timer
			rowsOut := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := exec.DrainBatches(nil, parallelRunsScanPlan(b, workers))
				if err != nil {
					b.Fatal(err)
				}
				rowsOut = len(rows)
			}
			b.StopTimer()
			if rowsOut == 0 {
				b.Fatal("benchmark plan returned no rows")
			}
			b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// TestParallelScalingPlansAgree keeps the scaling benchmark honest: every
// worker count must return the serial engine's rows for the benchmarked
// query and plan.
func TestParallelScalingPlansAgree(t *testing.T) {
	want, err := parallelItemsEngine(t, 1).Query(scanFilterAggSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("benchmark query returned no rows")
	}
	wantRuns, err := exec.DrainBatches(nil, runsScanPlan(t, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := parallelItemsEngine(t, workers).Query(scanFilterAggSQL)
		if err != nil {
			t.Fatal(err)
		}
		if msg := rowsApproxEqual(got.Rows, want.Rows); msg != "" {
			t.Errorf("workers=%d: SQL scaling plan differs from serial: %s", workers, msg)
		}
		gotRuns, err := exec.DrainBatches(nil, parallelRunsScanPlan(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		if msg := rowsApproxEqual(gotRuns, wantRuns); msg != "" {
			t.Errorf("workers=%d: runs scaling plan differs from serial: %s", workers, msg)
		}
	}
}
