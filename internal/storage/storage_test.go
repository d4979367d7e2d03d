package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestPageInsertAndRead(t *testing.T) {
	p := newPage(1)
	if p.FreeSpace() >= PageSize {
		t.Fatalf("free space %d should be below page size", p.FreeSpace())
	}
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), {}}
	for i, r := range recs {
		slot, ok := p.InsertRecord(r)
		if !ok {
			t.Fatalf("insert %d failed", i)
		}
		if slot != i {
			t.Errorf("slot = %d, want %d", slot, i)
		}
	}
	if p.NumSlots() != len(recs) {
		t.Fatalf("NumSlots = %d", p.NumSlots())
	}
	for i, r := range recs {
		if got := string(p.Record(i)); got != string(r) {
			t.Errorf("record %d = %q, want %q", i, got, r)
		}
	}
	if p.Record(-1) != nil || p.Record(99) != nil {
		t.Error("out of range slots should return nil")
	}
}

func TestPageDelete(t *testing.T) {
	p := newPage(1)
	p.InsertRecord([]byte("keep"))
	p.InsertRecord([]byte("drop"))
	if err := p.DeleteRecord(1); err != nil {
		t.Fatal(err)
	}
	if p.Record(1) != nil {
		t.Error("deleted record still readable")
	}
	if string(p.Record(0)) != "keep" {
		t.Error("sibling record damaged by delete")
	}
	if err := p.DeleteRecord(5); err == nil {
		t.Error("expected error deleting invalid slot")
	}
}

// TestPageFillsUpAndOverheadCounts: a page holds exactly as many records as
// fit with TupleOverhead header bytes and a slot each — 72 records of 100
// bytes, where 78 would fit without the header.
func TestPageFillsUpAndOverheadCounts(t *testing.T) {
	rec := []byte(strings.Repeat("x", 100))
	p := newPage(1)
	n := 0
	for {
		if _, ok := p.InsertRecord(rec); !ok {
			break
		}
		n++
	}
	if want := (PageSize - pageHeaderSize) / (len(rec) + TupleOverhead + slotSize); n != want {
		t.Errorf("page took %d records of %d bytes, want %d", n, len(rec), want)
	}
	if bare := (PageSize - pageHeaderSize) / (len(rec) + slotSize); n >= bare {
		t.Errorf("overhead should reduce records per page: %d vs %d", n, bare)
	}
}

func TestPageAux(t *testing.T) {
	p := newPage(7)
	if p.Aux() != 0 {
		t.Error("new page aux should be zero")
	}
	p.SetAux(123456789)
	if p.Aux() != 123456789 {
		t.Error("aux round trip failed")
	}
	// Aux must survive record inserts.
	p.InsertRecord([]byte("data"))
	if p.Aux() != 123456789 {
		t.Error("aux clobbered by insert")
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

// heapRecord is the test record of row i.
func heapRecord(i int) []byte { return fmt.Appendf(nil, "row-%d|%g", i, float64(i)/3) }

func TestHeapFileInsertScanGet(t *testing.T) {
	pg := NewPager(0)
	h := NewHeapFile(pg)
	const n = 5000
	var rids []RID
	for i := 0; i < n; i++ {
		rid, err := h.Insert(heapRecord(i))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	if h.RowCount() != n {
		t.Fatalf("RowCount = %d", h.RowCount())
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.NumPages())
	}
	// Point lookups.
	for _, i := range []int{0, 1, n / 2, n - 1} {
		rec, err := h.Get(rids[i])
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if string(rec) != string(heapRecord(i)) {
			t.Errorf("record %d = %q", i, rec)
		}
	}
	// Full scan sees every record exactly once, in insertion order.
	it := h.Scan()
	i := 0
	for {
		rec, rid, ok := it.NextRecord()
		if !ok {
			break
		}
		if string(rec) != string(heapRecord(i)) {
			t.Fatalf("scan out of order at %d: %q", i, rec)
		}
		if rid != rids[i] {
			t.Fatalf("scan rid mismatch at %d", i)
		}
		i++
	}
	if it.Err() != nil || i != n {
		t.Fatalf("scan returned %d records, want %d (err %v)", i, n, it.Err())
	}
}

func TestHeapFileDelete(t *testing.T) {
	pg := NewPager(0)
	h := NewHeapFile(pg)
	var rids []RID
	for i := 0; i < 10; i++ {
		rid, err := h.Insert(heapRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Delete(rids[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rids[3]); err == nil {
		t.Error("expected error reading deleted row")
	}
	if h.RowCount() != 9 {
		t.Errorf("RowCount = %d after delete", h.RowCount())
	}
	seen := 0
	it := h.Scan()
	for {
		rec, _, ok := it.NextRecord()
		if !ok {
			break
		}
		if string(rec) == string(heapRecord(3)) {
			t.Error("deleted row visible in scan")
		}
		seen++
	}
	if it.Err() != nil || seen != 9 {
		t.Errorf("scan saw %d rows, want 9 (err %v)", seen, it.Err())
	}
}

func TestHeapFileRejectsOversizedRow(t *testing.T) {
	h := NewHeapFile(NewPager(0))
	if _, err := h.Insert(make([]byte, PageSize)); err == nil {
		t.Error("expected error for oversized row")
	}
}

func TestHeapScanCountsSequentialIO(t *testing.T) {
	pg := NewPager(0)
	h := NewHeapFile(pg)
	for i := 0; i < 20000; i++ {
		if _, err := h.Insert(heapRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	pg.ResetCache()
	pg.ResetStats()
	it := h.Scan()
	for _, _, ok := it.NextRecord(); ok; _, _, ok = it.NextRecord() {
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	s := pg.Stats()
	if s.PageReads != int64(h.NumPages()) {
		t.Errorf("cold scan read %d pages, heap has %d", s.PageReads, h.NumPages())
	}
	if s.RandReads > s.SeqReads {
		t.Errorf("heap scan should be mostly sequential: %+v", s)
	}
}
