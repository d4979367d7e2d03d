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

// TestColdParallelSeekAfterWriteReadsNoStrayLeaf: the first parallel plan
// over a tree after a write sizes its range for morsels, which needs the
// tree's average leaf fill. The leaf count behind it comes from the level
// above the leaves, so a cold P=2 point seek reads what the serial seek reads
// (the descent and the range's leaves) plus at most the tree's internal
// pages — not every leaf of the table, as walking the leaf chain did.
func TestColdParallelSeekAfterWriteReadsNoStrayLeaf(t *testing.T) {
	e := newWorkloadEngine(t)
	const q = "SELECT COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1995-06-06'"
	mustExec(t, e, "INSERT INTO lineitem VALUES (1, 1, DATE '1996-01-01', 1.0, 'N')")
	tbl, err := e.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	tree := tbl.Clustered.Tree()
	leaves, err := tree.LeafPages()
	if err != nil {
		t.Fatal(err)
	}
	all, err := tree.AllPages()
	if err != nil {
		t.Fatal(err)
	}
	internal := int64(len(all) - len(leaves))
	if len(leaves) < 8 || tree.Height() < 2 {
		t.Fatalf("lineitem has %d leaves over %d levels; the test needs a leaf chain to avoid", len(leaves), tree.Height())
	}
	mustExec(t, e, "INSERT INTO lineitem VALUES (2, 2, DATE '1996-01-02', 2.0, 'N')")
	e.ResetBufferPool()
	serial, err := e.QueryWith(QueryOptions{Parallelism: 1, NoCache: true}, q)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetBufferPool()
	par, err := e.QueryWith(QueryOptions{Parallelism: 2, NoCache: true}, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := par.Stats.IO.PageReads, serial.Stats.IO.PageReads+internal; got > limit {
		t.Errorf("cold P=2 seek after a write read %d pages; the serial seek reads %d and the tree has %d internal pages (%d leaves)",
			got, serial.Stats.IO.PageReads, internal, len(leaves))
	}
	if fmtRows(par.Rows) != fmtRows(serial.Rows) {
		t.Errorf("P=2 seek returned %v, serial %v", par.Rows, serial.Rows)
	}
}
