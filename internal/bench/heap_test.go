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

// heapPoolPages is TestHeapTracksPool's buffer pool: a small fraction of the
// harness's pages.
const heapPoolPages = 64

// TestHeapTracksPool pins that the buffer pool, not the data, bounds the
// pages in memory: once the harness's pool is cut to 64 pages and every query
// of every strategy has run at SF 0.005, the live heap the harness added is
// the pool's bytes plus a quarter and the allowance, while the pages it
// allocated are several times that.
func TestHeapTracksPool(t *testing.T) {
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
	defer h.Engine.Close()
	h.Engine.Pager().SetCapacity(heapPoolPages)
	for _, q := range Queries() {
		for _, s := range []Strategy{StrategyRow, StrategyRowMV, StrategyRowCol} {
			if _, err := h.Run(q, s, 1.0); err != nil {
				t.Fatalf("%s %s: %v", q, s, err)
			}
		}
	}
	grown := int64(liveHeap()) - int64(before)
	poolBytes := int64(heapPoolPages) * storage.PageSize
	pageBytes := int64(h.Engine.Pager().NumPages()) * storage.PageSize
	limit := poolBytes*5/4 + heapAllowance
	t.Logf("live heap grew %.1f MiB with a %.1f MiB pool over %.1f MiB of pages (limit %.1f MiB)",
		float64(grown)/(1<<20), float64(poolBytes)/(1<<20), float64(pageBytes)/(1<<20), float64(limit)/(1<<20))
	if pageBytes < 4*poolBytes || pageBytes < limit {
		t.Fatalf("%d bytes of pages is too little beside a %d-byte pool to tell the two apart", pageBytes, poolBytes)
	}
	if grown > limit {
		t.Errorf("live heap grew %d bytes with a %d-byte pool; want at most 1.25x + %d", grown, poolBytes, heapAllowance)
	}
}
