package bench

import (
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/storage/faultfs"
)

// TestMissesAreFileReads holds the pager's counters to what a bounded pool
// does: over every ioGolden query, each page read the pager charges is one
// read of its spill file, and nothing else — planning included — reads it.
// (Both pull protocols read the same pages; TestSerialIOGolden holds them to
// one table.)
func TestMissesAreFileReads(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H at SF 0.01")
	}
	fsys := faultfs.CountReads(storage.OSFS{})
	cfg := DefaultConfig()
	cfg.FS = fsys
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Engine.Close()
	// The load ran unbounded, so nothing has spilled yet; bounding the pool
	// sends everything beyond it to the spill file.
	h.Engine.Pager().SetCapacity(ioGoldenPool)
	for _, g := range ioGolden {
		// Run's steps, with the reads counted from the cold start on: a
		// fixed-parameter query resolves its parameter with a query of its
		// own first.
		spec := h.specs()[g.q]
		query, _, _ := spec.resolve(h, g.sel)
		sqlText, err := h.strategySQL(g.q, spec, g.s, query)
		if err != nil {
			t.Fatal(err)
		}
		h.Engine.ResetBufferPool()
		reads := fsys.Reads(faultfs.Temp)
		res, err := h.Engine.Query(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		got, io := fsys.Reads(faultfs.Temp)-reads, res.Stats.IO
		if got != io.PageReads || io.PageReads != g.reads {
			t.Errorf("%s %s sel=%v: %d spill-file reads for %d charged page reads (golden %d)",
				g.q, g.s, g.sel, got, io.PageReads, g.reads)
		}
	}
}
