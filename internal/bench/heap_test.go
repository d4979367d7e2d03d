package bench

import (
	"runtime"
	"testing"

	"oldelephant/internal/storage"
)

// heapAllowance covers what a loaded harness keeps besides pages — catalog,
// statistics sketches, ColOpt projections, view definitions — which does not
// grow with the number of pages read.
const heapAllowance = 4 << 20

// TestHeapTracksPages pins that a page has one in-memory representation: once
// every query of every strategy has read its leaves, the live heap the
// harness added is its pages' bytes plus a quarter, not a second decoded copy
// of each page a read has touched.
func TestHeapTracksPages(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H at SF 0.005")
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	cfg := DefaultConfig()
	cfg.SF = 0.005
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	for _, q := range Queries() {
		for _, s := range []Strategy{StrategyRow, StrategyRowMV, StrategyRowCol} {
			if _, err := h.Run(q, s, 1.0); err != nil {
				t.Fatalf("%s %s: %v", q, s, err)
			}
		}
	}
	grown := int64(liveHeap()) - int64(before)
	pageBytes := int64(h.Engine.Pager().NumPages()) * storage.PageSize
	t.Logf("live heap grew %.1f MiB over %.1f MiB of pages (%.2fx)",
		float64(grown)/(1<<20), float64(pageBytes)/(1<<20), float64(grown)/float64(pageBytes))
	if limit := pageBytes*5/4 + heapAllowance; grown > limit {
		t.Errorf("live heap grew %d bytes for %d bytes of pages; want at most 1.25x + %d", grown, pageBytes, heapAllowance)
	}
}
