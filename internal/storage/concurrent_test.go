package storage

import (
	"sync"
	"testing"
)

// TestConcurrentPagerSharedReads pins the pager's thread-safety contract
// under the race detector: concurrent readers (buffer-pool hits and misses,
// stats snapshots, capacity changes) over one pager, the access pattern of
// concurrent queries sharing a buffer pool.
func TestConcurrentPagerSharedReads(t *testing.T) {
	p := NewPager(8) // small pool so concurrent Gets evict constantly
	defer p.CloseFile()
	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = mustAllocate(t, p).ID()
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				pg, err := p.Get(ids[(g*31+i)%pages])
				if err != nil {
					t.Error(err)
					return
				}
				_ = pg.Data()[0] // touch the page like a scan would
				if i%50 == 0 {
					_ = p.Stats()
					_ = p.NumPages()
				}
			}
		}(g)
	}
	wg.Wait()
	s := p.Stats()
	if s.PageReads+s.CacheHits < goroutines*400 {
		t.Errorf("accounting lost accesses: %d reads + %d hits", s.PageReads, s.CacheHits)
	}
}

// TestConcurrentPagerResetStats: stats snapshots and resets may interleave
// with reads (the bench harness resets between measurements while a server
// could be reading).
func TestConcurrentPagerResetStats(t *testing.T) {
	p := NewPager(0)
	var ids []PageID
	for i := 0; i < 16; i++ {
		ids = append(ids, mustAllocate(t, p).ID())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p.Get(ids[i%len(ids)])
				if g == 0 && i%100 == 0 {
					p.ResetStats()
				}
			}
		}(g)
	}
	wg.Wait()
}
