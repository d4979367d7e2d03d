package engine

import (
	"testing"

	"oldelephant/internal/storage"
)

// TestQueryIOIsThePagersDelta: with one caller, a query's reported I/O is
// exactly what the pager did around the call — serial or parallel, planned
// afresh or leased from the plan cache. A parallel plan's morsel partitioning
// reads the internal pages over its range while planning and again as the
// parallel operator opens; those reads are the query's too.
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

// TestColdParallelScansReadNoLeafTwice: a parallel plan splits its range
// into morsels by the leaves the level above them names, so on a 64-page pool
// a cold P=2 query reads what the serial one reads plus at most the tree's
// internal pages — a point seek, a bounded clustered range and a full scan,
// on a freshly loaded table and after an INSERT, the first plan over a
// written tree. Walking the leaf chain to split read the range's leaves
// twice: once to name them and once to scan them.
func TestColdParallelScansReadNoLeafTwice(t *testing.T) {
	e := newScaledWorkloadEngine(t, 16)
	e.Pager().SetCapacity(64)
	queries := []struct{ name, sql string }{
		{"point seek", "SELECT COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1995-06-06'"},
		{"bounded range", "SELECT COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-08-01'"},
		{"full scan", "SELECT COUNT(*) FROM lineitem"},
	}
	tbl, err := e.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	for _, state := range []string{"loaded", "after INSERT"} {
		if state == "after INSERT" {
			mustExec(t, e, "INSERT INTO lineitem VALUES (1, 1, DATE '1996-01-01', 1.0, 'N')")
		}
		tree := tbl.Clustered.Tree()
		leaves, err := tree.LeafCount()
		if err != nil {
			t.Fatal(err)
		}
		all, err := tree.AllPages()
		if err != nil {
			t.Fatal(err)
		}
		internal := int64(len(all) - leaves)
		if leaves <= 64 || tree.Height() < 2 {
			t.Fatalf("lineitem has %d leaves over %d levels; the test needs more leaves than the pool holds", leaves, tree.Height())
		}
		for _, q := range queries {
			e.ResetBufferPool()
			serial, err := e.QueryWith(QueryOptions{Parallelism: 1, NoCache: true}, q.sql)
			if err != nil {
				t.Fatal(err)
			}
			e.ResetBufferPool()
			par, err := e.QueryWith(QueryOptions{Parallelism: 2, NoCache: true}, q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got, limit := par.Stats.IO.PageReads, serial.Stats.IO.PageReads+internal; got > limit {
				t.Errorf("%s, %s: cold P=2 read %d pages; the serial plan reads %d and the tree has %d internal pages (%d leaves)",
					state, q.name, got, serial.Stats.IO.PageReads, internal, leaves)
			}
			if fmtRows(par.Rows) != fmtRows(serial.Rows) {
				t.Errorf("%s, %s: P=2 returned %v, serial %v", state, q.name, par.Rows, serial.Rows)
			}
		}
	}
}

// TestColdSerialReadsIgnoreProjection (metamorphic): what a cold serial scan
// reads does not depend on which columns it projects — the leaves hold whole
// rows, and a projection only skips bytes within them. COUNT(*), SUM of a
// float, MAX of a string and SELECT * read the same pages over a full scan
// (every one of lineitem's 184 leaves) and over a bounded range (79: the
// range begins at the leaf the tree's leaf model predicts, with no root read).
func TestColdSerialReadsIgnoreProjection(t *testing.T) {
	e := newScaledWorkloadEngine(t, 16)
	e.Pager().SetCapacity(64)
	for _, scan := range []struct {
		where string
		reads int64
	}{
		{"", 184},
		{" WHERE l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-08-01'", 79},
	} {
		for _, sel := range []string{"COUNT(*)", "SUM(l_extendedprice)", "MAX(l_returnflag)", "*"} {
			q := "SELECT " + sel + " FROM lineitem" + scan.where
			e.ResetBufferPool()
			res, err := e.QueryWith(QueryOptions{Parallelism: 1, NoCache: true}, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Stats.IO.PageReads; got != scan.reads {
				t.Errorf("%s: a cold serial run read %d pages, want %d", q, got, scan.reads)
			}
		}
	}
}
