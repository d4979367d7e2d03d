package storage

import (
	"math/rand"
	"strings"
	"testing"
)

func TestPageAux(t *testing.T) {
	p := &Page{id: 7, data: make([]byte, PageSize)}
	if p.Aux() != 0 {
		t.Error("new page aux should be zero")
	}
	p.SetAux(123456789)
	if p.Aux() != 123456789 {
		t.Error("aux round trip failed")
	}
}

func TestPagerAllocationAndStats(t *testing.T) {
	pg := NewPager(0)
	var ids []PageID
	for i := 0; i < 10; i++ {
		ids = append(ids, mustAllocate(t, pg).ID())
	}
	if pg.NumPages() != 10 {
		t.Fatalf("NumPages = %d", pg.NumPages())
	}
	// All pages are cached after allocation: reads should be hits.
	for _, id := range ids {
		pg.Get(id)
	}
	s := pg.Stats()
	if s.PageReads != 0 || s.CacheHits != 10 {
		t.Errorf("warm stats = %+v", s)
	}
	// After a cache reset, sequential access is counted as sequential reads.
	pg.ResetCache()
	pg.ResetStats()
	for _, id := range ids {
		pg.Get(id)
	}
	s = pg.Stats()
	if s.PageReads != 10 {
		t.Errorf("cold reads = %d, want 10", s.PageReads)
	}
	if s.SeqReads < 9 {
		t.Errorf("sequential reads = %d, want >= 9", s.SeqReads)
	}
	// A genuinely random access pattern over many pages is counted as random.
	big := NewPager(0)
	var bigIDs []PageID
	for i := 0; i < 400; i++ {
		bigIDs = append(bigIDs, mustAllocate(t, big).ID())
	}
	big.ResetCache()
	big.ResetStats()
	perm := rand.New(rand.NewSource(1)).Perm(len(bigIDs))
	for _, i := range perm {
		big.Get(bigIDs[i])
	}
	s = big.Stats()
	if s.RandReads < s.SeqReads {
		t.Errorf("random access should be mostly random: %+v", s)
	}
}

func TestPagerInterleavedStreamsAreSequential(t *testing.T) {
	// Two interleaved ascending scans (the access pattern of an index
	// nested-loop join over two tables) must be classified as sequential.
	pg := NewPager(0)
	var ids []PageID
	for i := 0; i < 200; i++ {
		ids = append(ids, mustAllocate(t, pg).ID())
	}
	pg.ResetCache()
	pg.ResetStats()
	a, b := 0, 100
	for i := 0; i < 100; i++ {
		pg.Get(ids[a+i])
		pg.Get(ids[b+i])
	}
	s := pg.Stats()
	if s.RandReads > 4 {
		t.Errorf("interleaved scans should be mostly sequential: %+v", s)
	}
}

func TestPagerEviction(t *testing.T) {
	pg := NewPager(2)
	defer pg.CloseFile()
	a := mustAllocate(t, pg).ID()
	b := mustAllocate(t, pg).ID()
	c := mustAllocate(t, pg).ID() // evicts a
	pg.ResetStats()
	pg.Get(c)
	pg.Get(b)
	if s := pg.Stats(); s.PageReads != 0 {
		t.Errorf("expected hits for resident pages, got %+v", s)
	}
	pg.Get(a) // miss
	if s := pg.Stats(); s.PageReads != 1 {
		t.Errorf("expected one miss, got %+v", s)
	}
	pg.SetCapacity(1)
	pg.ResetStats()
	pg.Get(b)
	pg.Get(a)
	pg.Get(b)
	if s := pg.Stats(); s.PageReads < 2 {
		t.Errorf("capacity-1 pool should thrash, got %+v", s)
	}
}

func TestPagerGetUnknownErrors(t *testing.T) {
	pg, err := NewPager(0).Get(42)
	if err == nil {
		t.Fatal("expected error for unknown page id")
	}
	if pg != nil {
		t.Error("unknown page id should return a nil page")
	}
	if !strings.Contains(err.Error(), "unknown page") {
		t.Errorf("error should identify the problem: %v", err)
	}
}

func TestIOStatsArithmetic(t *testing.T) {
	a := IOStats{PageReads: 10, SeqReads: 6, RandReads: 4, CacheHits: 2, PageWrites: 1, PagesAllocated: 3}
	b := IOStats{PageReads: 4, SeqReads: 2, RandReads: 2, CacheHits: 1, PageWrites: 1, PagesAllocated: 1}
	diff := a.Sub(b)
	if diff.PageReads != 6 || diff.SeqReads != 4 || diff.RandReads != 2 || diff.CacheHits != 1 || diff.PagesAllocated != 2 {
		t.Errorf("Sub = %+v", diff)
	}
	sum := diff.Add(b)
	if sum != a {
		t.Errorf("Add(Sub) != original: %+v", sum)
	}
}

// mustAllocate unwraps Allocate's write-back error: in these tests a failed
// spill write is a harness failure, not a condition under test.
func mustAllocate(t testing.TB, p *Pager) *Page {
	t.Helper()
	pg, err := p.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	return pg
}
