package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"oldelephant/internal/sql"
)

// idlePlanStatements are scan statements of every executor shape a cached
// plan can take over lineitem: serial and parallel scans and seeks under
// aggregates, a sort and a plain projection (ParallelMerge at P=2), a string
// column, and a band join's inner scan. Each literal varies with i, so every
// statement is its own cache entry.
func idlePlanStatements(i int) []string {
	day := fmt.Sprintf("DATE '1995-%02d-%02d'", 1+i%12, 1+i%28)
	return []string{
		fmt.Sprintf("SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_suppkey <> %d GROUP BY l_returnflag", i),
		fmt.Sprintf("SELECT l_orderkey, l_returnflag FROM lineitem WHERE l_extendedprice > %d", 190+i),
		fmt.Sprintf("SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate >= %s ORDER BY l_extendedprice DESC LIMIT 5", day),
		fmt.Sprintf("SELECT COUNT(*), MAX(l_returnflag) FROM lineitem WHERE l_shipdate = %s", day),
		fmt.Sprintf("SELECT COUNT(*) FROM orders o JOIN lineitem l ON l.l_shipdate BETWEEN o.o_orderdate AND o.o_orderdate WHERE o.o_orderkey < %d", 20+i),
	}
}

// liveHeap is the heap still allocated after two full collections; the
// second empties the pools the first moved to their victim caches.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIdlePlansHoldNoExecutionState: a plan idle in the plan cache holds its
// operator tree and its source's bounds, not the state of its last
// execution — no column, code or span buffer, no dictionary, no morsel and no
// page frame. Forty statements, serial and at two workers, run twice each
// over a lineitem three times the size of a 64-page pool, so every one
// returns a plan to the cache. With the pool emptied, any frame an idle plan
// still reached would live outside it: emptying the cache then frees at most
// a small constant per plan. While plans kept their last execution's
// buffers and morsels, emptying the same cache freed about 83 KiB per plan.
func TestIdlePlansHoldNoExecutionState(t *testing.T) {
	e := newScaledWorkloadEngine(t, 16)
	e.Pager().SetCapacity(64)
	plans := 0
	for i := 0; i < 4; i++ {
		for _, q := range idlePlanStatements(i) {
			for _, workers := range []int{1, 2} {
				for run := 0; run < 2; run++ {
					if _, err := e.QueryWith(QueryOptions{Parallelism: workers}, q); err != nil {
						t.Fatalf("P=%d %s: %v", workers, q, err)
					}
				}
				plans++
			}
		}
	}
	if s := e.PlanCacheStats(); s.Entries != plans || s.Hits != int64(plans) {
		t.Fatalf("plan cache holds %d entries after %d hits, want %d and %d", s.Entries, s.Hits, plans, plans)
	}
	e.ResetBufferPool()
	cached := liveHeap()
	e.invalidatePlans()
	freed := cached - liveHeap()
	t.Logf("emptying a cache of %d idle plans freed %d bytes, %d per plan", plans, freed, freed/int64(plans))
	const perPlan = 12 << 10
	if freed > int64(plans)*perPlan {
		t.Errorf("emptying a cache of %d idle plans freed %d KiB, more than %d KiB per plan: idle plans hold execution state",
			plans, freed>>10, perPlan>>10)
	}
}

// TestParallelSessionsShareFillBuffers: the column, code and span buffers
// that scans fill through come from one pool shared by every session. Two
// sessions run the same cached statements at once — one leases the cached
// plan while the other, finding no idle instance, replans from the cached
// parse tree — serially and at two workers, whose morsels take and return
// buffers concurrently. Every answer equals a fresh engine's.
func TestParallelSessionsShareFillBuffers(t *testing.T) {
	e := newScaledWorkloadEngine(t, 4)
	fresh := newScaledWorkloadEngine(t, 4)
	stmts := idlePlanStatements(0)
	want := make([]string, len(stmts))
	for i, q := range stmts {
		res, err := fresh.QueryWith(QueryOptions{Parallelism: 1, NoCache: true}, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmtRows(res.Rows)
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows; the test needs answers to compare", q)
		}
	}
	check := func(q string, i, workers int) {
		res, err := e.QueryWith(QueryOptions{Parallelism: workers}, q)
		if err != nil {
			t.Errorf("P=%d %s: %v", workers, q, err)
			return
		}
		if got := fmtRows(res.Rows); got != want[i] {
			t.Errorf("P=%d %s: answered\n%s\nwant\n%s", workers, q, got, want[i])
		}
	}
	for _, workers := range []int{1, 2} {
		for i, q := range stmts {
			check(q, i, workers) // one idle plan per statement
			// This session holds the idle plan, so the other one replans
			// from the cached parse tree while the lease executes.
			key := planKey{sql: sql.Normalize(q), parallelism: workers}
			leased, stmt, text := e.plans.acquire(key)
			if leased == nil {
				t.Fatalf("P=%d %s: no idle plan to lease", workers, q)
			}
			before := e.PlanCacheStats().StmtHits
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(q, i, workers)
			}()
			res, err := e.executePlan(nil, leased, e.pager.Stats())
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmtRows(res.Rows); got != want[i] {
				t.Errorf("P=%d %s: the leased plan answered\n%s\nwant\n%s", workers, q, got, want[i])
			}
			if e.PlanCacheStats().StmtHits != before+1 {
				t.Errorf("P=%d %s: the second session did not replan from the cached statement", workers, q)
			}
			e.plans.release(key, stmt, text, leased)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for _, workers := range []int{1, 2} {
					for i, q := range stmts {
						check(q, i, workers)
					}
				}
			}
		}()
	}
	wg.Wait()
}
