package engine

import (
	"testing"

	"oldelephant/internal/storage"
)

// TestQueryIOIsThePagersDelta: with one caller, a query's reported I/O is
// exactly what the pager did around the call — serial or parallel, planned
// afresh or leased from the plan cache. A parallel plan's morsel partitioning
// reads leaves while planning, before execution starts; those reads are the
// query's too.
func TestQueryIOIsThePagersDelta(t *testing.T) {
	e := newWorkloadEngine(t)
	const q = "SELECT COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1995-06-06'"
	for _, par := range []int{1, 2} {
		for _, cached := range []bool{false, true} {
			opts := QueryOptions{Parallelism: par, NoCache: !cached}
			if cached {
				// Plan once, so the measured run leases the cached plan.
				if _, err := e.QueryWith(opts, q); err != nil {
					t.Fatal(err)
				}
			}
			e.ResetBufferPool()
			before := e.Pager().Stats()
			res, err := e.QueryWith(opts, q)
			if err != nil {
				t.Fatal(err)
			}
			if cached != res.Stats.PlanCached {
				t.Fatalf("P=%d cached=%v: the plan cache was not used as intended", par, cached)
			}
			delta := e.Pager().Stats().Sub(before)
			if res.Stats.IO != delta {
				t.Errorf("P=%d cached=%v: result reports %+v, the pager did %+v", par, cached, res.Stats.IO, delta)
			}
			if delta == (storage.IOStats{}) {
				t.Errorf("P=%d cached=%v: a cold query did no page I/O", par, cached)
			}
		}
	}
}
