package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// IOStats accumulates the page-level I/O behaviour of a pager. The benchmark
// harness converts these counters into a modeled disk time; the paper's
// headline ratios are driven almost entirely by the number of pages each
// strategy must read.
type IOStats struct {
	// PageReads counts buffer-pool misses, i.e. pages fetched from "disk".
	PageReads int64
	// SeqReads is the subset of PageReads whose page id immediately follows
	// the previously missed page (sequential I/O).
	SeqReads int64
	// RandReads is PageReads - SeqReads.
	RandReads int64
	// CacheHits counts accesses served by the buffer pool.
	CacheHits int64
	// PageWrites counts pages written (allocation and flush).
	PageWrites int64
	// PagesAllocated is the total number of pages ever allocated.
	PagesAllocated int64
}

// Sub returns the difference s - o, useful for measuring a single query.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		PageReads:      s.PageReads - o.PageReads,
		SeqReads:       s.SeqReads - o.SeqReads,
		RandReads:      s.RandReads - o.RandReads,
		CacheHits:      s.CacheHits - o.CacheHits,
		PageWrites:     s.PageWrites - o.PageWrites,
		PagesAllocated: s.PagesAllocated - o.PagesAllocated,
	}
}

// Add returns the sum of two stats.
func (s IOStats) Add(o IOStats) IOStats {
	return IOStats{
		PageReads:      s.PageReads + o.PageReads,
		SeqReads:       s.SeqReads + o.SeqReads,
		RandReads:      s.RandReads + o.RandReads,
		CacheHits:      s.CacheHits + o.CacheHits,
		PageWrites:     s.PageWrites + o.PageWrites,
		PagesAllocated: s.PagesAllocated + o.PagesAllocated,
	}
}

// Pager owns all pages of a database instance. Every page is memory-resident
// for the life of the process, and a page's bytes here are its only in-memory
// representation: readers decode records in place. One aliasing rule follows,
// and any eviction scheme has to honour it: the key and payload spans a batch
// fill collects (btree.Iterator.NextSpans, HeapIterator.NextRecord) point into
// page memory and must stay readable until the tree or heap they came from is
// next mutated. The pager runs in one of two modes:
//
//   - memory mode (NewPager): the original simulated disk. The buffer pool
//     of bounded size models cold-cache behaviour for the paper's benchmarks;
//     accesses that miss the pool are charged as page reads and classified as
//     sequential or random.
//   - file mode (OpenPagerFile): the same resident page set, plus a DataFile
//     that checkpoints flush dirty pages to. Durability comes from the WAL
//     (internal/wal) + checkpoint protocol driven by the engine; the pager's
//     job is tracking dirty pages and statement-scoped undo images.
//
// Sequentiality is tracked per stream: a read that continues any of the most
// recently active read positions counts as sequential. This models the
// behaviour of disk read-ahead when a query interleaves scans of a few
// objects (e.g. the two sides of an index nested-loop join), which a single
// "last page" tracker would misclassify as entirely random.
type Pager struct {
	mu       sync.Mutex
	pages    []*Page // index = PageID-1; the resident page set
	capacity int     // buffer pool capacity in pages; <=0 means unbounded
	cache    map[PageID]*list.Element
	lru      *list.List // front = most recently used; stores PageID
	streams  []PageID   // recent miss positions, most recent first
	stats    IOStats

	// Durability state (file mode only; all nil/empty in memory mode).
	file  *DataFile
	dirty map[PageID]struct{} // written since last checkpoint flush
	free  []PageID            // freed page ids available for reuse
	stmt  *stmtState          // active statement's undo capture, or nil
	// corrupt counts page slots whose checksum failed verification at open
	// (they were subsequently overwritten by WAL replay or recovery failed).
	corrupt int64
}

// stmtState captures what a mutating statement needs for rollback: pre-images
// of pages that existed before the statement, the set of pages it wrote, and
// the page-count / freelist snapshot to unwind allocations.
type stmtState struct {
	pre        map[PageID][]byte
	dirty      []PageID
	dirtySet   map[PageID]struct{}
	startPages int
	startFree  []PageID
}

// StmtUndo is the undo record of one completed statement, kept by the engine
// until the statement's WAL records are durable. Undoing a suffix of the
// statement history in reverse order restores the exact pre-statement state.
type StmtUndo struct {
	pre        map[PageID][]byte
	dirty      []PageID // pages written, in first-write order
	startPages int
	startFree  []PageID
}

// Dirty returns the pages the statement wrote, in first-write order.
func (u *StmtUndo) Dirty() []PageID { return u.dirty }

// maxStreams is the number of concurrent sequential read streams the
// sequentiality classifier tracks (a proxy for the drive's read-ahead slots).
const maxStreams = 8

// NewPager creates a memory-mode pager whose buffer pool holds up to capacity
// pages. capacity <= 0 means the pool is unbounded (every page is read from
// disk at most once until ResetCache is called).
func NewPager(capacity int) *Pager {
	return &Pager{
		capacity: capacity,
		cache:    make(map[PageID]*list.Element),
		lru:      list.New(),
	}
}

// OpenPagerFile opens a file-mode pager over the data file at name, loading
// every page into memory. Pages whose checksum fails verification are
// reported in corrupt; the caller must overwrite them via ApplyPageImage
// (WAL replay) or fail recovery.
func OpenPagerFile(fsys FS, name string, capacity int) (p *Pager, corrupt []PageID, err error) {
	df, pages, corrupt, err := OpenDataFile(fsys, name)
	if err != nil {
		return nil, nil, err
	}
	p = NewPager(capacity)
	p.pages = pages
	p.file = df
	p.dirty = make(map[PageID]struct{})
	p.stats.PagesAllocated = int64(len(pages))
	p.corrupt = int64(len(corrupt))
	return p, corrupt, nil
}

// CorruptPages returns the number of page slots that failed checksum
// verification when the data file was opened (0 in memory mode). Non-zero
// after successful recovery means the WAL replay repaired them.
func (p *Pager) CorruptPages() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.corrupt
}

// Resident returns the number of pages currently resident in the buffer
// pool: the LRU population for a bounded pool, every allocated page for an
// unbounded one.
func (p *Pager) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.capacity > 0 {
		return p.lru.Len()
	}
	return len(p.pages)
}

// FileBacked reports whether the pager has a data file behind it.
func (p *Pager) FileBacked() bool { return p.file != nil }

// Allocate creates a new zeroed page and returns it, reusing a freed page id
// when one is available. The page is immediately resident in the buffer pool.
func (p *Pager) Allocate() *Page {
	p.mu.Lock()
	defer p.mu.Unlock()
	var pg *Page
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		p.captureUndo(id)
		pg = newPage(id)
		p.pages[id-1] = pg
	} else {
		id := PageID(len(p.pages) + 1)
		pg = newPage(id)
		p.pages = append(p.pages, pg)
	}
	p.stats.PagesAllocated++
	p.stats.PageWrites++
	p.markDirtyLocked(pg.id)
	p.admit(pg.id)
	return pg
}

// FreePage returns a page id to the freelist for reuse by later allocations.
// The page's memory stays resident (existing iterators may still alias it)
// until the id is reallocated.
func (p *Pager) FreePage(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == InvalidPageID || int(id) > len(p.pages) {
		return
	}
	p.free = append(p.free, id)
}

// FreeList returns a copy of the freelist (persisted in the engine's meta).
func (p *Pager) FreeList() []PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]PageID(nil), p.free...)
}

// SetFreeList replaces the freelist (used when restoring from meta).
func (p *Pager) SetFreeList(ids []PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = p.free[:0]
	for _, id := range ids {
		if id != InvalidPageID && int(id) <= len(p.pages) {
			p.free = append(p.free, id)
		}
	}
}

// Get returns the page with the given id, charging a read if it is not in
// the buffer pool. An unknown id returns an error: page ids normally only
// come from the pager itself, but a corrupt data file or a bug must fail the
// query, not the process.
func (p *Pager) Get(id PageID) (*Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == InvalidPageID || int(id) > len(p.pages) {
		return nil, fmt.Errorf("storage: get of unknown page %d (have %d)", id, len(p.pages))
	}
	if el, ok := p.cache[id]; ok {
		p.lru.MoveToFront(el)
		p.stats.CacheHits++
		return p.pages[id-1], nil
	}
	p.stats.PageReads++
	if p.extendsStream(id) {
		p.stats.SeqReads++
	} else {
		p.stats.RandReads++
	}
	p.admit(id)
	return p.pages[id-1], nil
}

// PageData returns the raw bytes of a page without touching the buffer-pool
// statistics. The WAL commit path uses it to copy page images.
func (p *Pager) PageData(id PageID) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == InvalidPageID || int(id) > len(p.pages) {
		return nil, fmt.Errorf("storage: get of unknown page %d (have %d)", id, len(p.pages))
	}
	return p.pages[id-1].data, nil
}

// extendsStream reports whether the missed page continues one of the tracked
// read streams, and updates the stream table either way. Caller holds p.mu.
func (p *Pager) extendsStream(id PageID) bool {
	for i, head := range p.streams {
		if id == head+1 {
			// Continue this stream and mark it most recently used.
			copy(p.streams[1:i+1], p.streams[:i])
			p.streams[0] = id
			return true
		}
	}
	p.streams = append([]PageID{id}, p.streams...)
	if len(p.streams) > maxStreams {
		p.streams = p.streams[:maxStreams]
	}
	return false
}

// admit inserts id into the buffer pool, evicting the least recently used
// page if the pool is full. Caller holds p.mu.
func (p *Pager) admit(id PageID) {
	if el, ok := p.cache[id]; ok {
		p.lru.MoveToFront(el)
		return
	}
	p.cache[id] = p.lru.PushFront(id)
	if p.capacity > 0 && p.lru.Len() > p.capacity {
		back := p.lru.Back()
		evicted := back.Value.(PageID)
		p.lru.Remove(back)
		delete(p.cache, evicted)
	}
}

// BeforeWrite declares that the caller is about to mutate the page. It
// charges a page write, records the page dirty for the next checkpoint, and —
// when a statement is open — captures the page's pre-image the first time the
// statement touches it, so the statement can be rolled back. Callers must
// invoke it before the mutation, not after.
func (p *Pager) BeforeWrite(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.PageWrites++
	p.captureUndo(id)
	p.markDirtyLocked(id)
}

// captureUndo snapshots the page's current content into the open statement's
// undo record if the page predates the statement and has not been captured
// yet. Caller holds p.mu.
func (p *Pager) captureUndo(id PageID) {
	s := p.stmt
	if s == nil || int(id) > s.startPages {
		return // no statement, or page allocated by this statement
	}
	if _, ok := s.pre[id]; ok {
		return
	}
	img := make([]byte, PageSize)
	copy(img, p.pages[id-1].data)
	s.pre[id] = img
}

// markDirtyLocked adds id to the checkpoint dirty set and the open
// statement's write set. Caller holds p.mu.
func (p *Pager) markDirtyLocked(id PageID) {
	if p.dirty != nil {
		p.dirty[id] = struct{}{}
	}
	if s := p.stmt; s != nil {
		if _, ok := s.dirtySet[id]; !ok {
			s.dirtySet[id] = struct{}{}
			s.dirty = append(s.dirty, id)
		}
	}
}

// BeginStmt opens a statement scope: subsequent writes capture undo images
// until EndStmt or AbortStmt. Statements do not nest; the engine serializes
// writers. Memory-mode pagers may skip the statement lifecycle entirely.
func (p *Pager) BeginStmt() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stmt != nil {
		panic("storage: BeginStmt with a statement already open")
	}
	p.stmt = &stmtState{
		pre:        make(map[PageID][]byte, 8),
		dirtySet:   make(map[PageID]struct{}, 8),
		startPages: len(p.pages),
		startFree:  append([]PageID(nil), p.free...),
	}
}

// EndStmt closes the statement scope, returning its undo record. The engine
// holds the record until the statement's WAL entries are durable, and applies
// it (via Rollback, newest first) if durability fails.
func (p *Pager) EndStmt() *StmtUndo {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stmt
	if s == nil {
		return nil
	}
	p.stmt = nil
	return &StmtUndo{pre: s.pre, dirty: s.dirty, startPages: s.startPages, startFree: s.startFree}
}

// AbortStmt rolls back the open statement immediately (statement failed
// before reaching the WAL) and closes the scope.
func (p *Pager) AbortStmt() {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stmt
	if s == nil {
		return
	}
	p.stmt = nil
	p.rollbackLocked(&StmtUndo{pre: s.pre, dirty: s.dirty, startPages: s.startPages, startFree: s.startFree})
}

// Rollback applies one statement's undo record: pre-images are restored,
// pages the statement allocated are dropped, and the freelist is rewound.
// When unwinding several statements, apply the records newest-first so the
// final state is the oldest statement's pre-state.
func (p *Pager) Rollback(u *StmtUndo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rollbackLocked(u)
}

func (p *Pager) rollbackLocked(u *StmtUndo) {
	for id, img := range u.pre {
		if int(id) <= len(p.pages) {
			copy(p.pages[id-1].data, img)
		}
	}
	for i := u.startPages; i < len(p.pages); i++ {
		id := PageID(i + 1)
		if el, ok := p.cache[id]; ok {
			p.lru.Remove(el)
			delete(p.cache, id)
		}
		if p.dirty != nil {
			delete(p.dirty, id)
		}
	}
	p.pages = p.pages[:u.startPages]
	p.free = append(p.free[:0], u.startFree...)
	p.streams = nil
}

// ApplyPageImage installs a full page image (WAL replay). Missing slots up to
// id are created so replay can restore allocations in any order. The page is
// marked dirty so the post-recovery checkpoint flushes it.
func (p *Pager) ApplyPageImage(id PageID, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("storage: page image of %d bytes (want %d)", len(data), PageSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for int(id) > len(p.pages) {
		nid := PageID(len(p.pages) + 1)
		p.pages = append(p.pages, newPage(nid))
		p.stats.PagesAllocated++
	}
	copy(p.pages[id-1].data, data)
	if p.dirty == nil {
		p.dirty = make(map[PageID]struct{})
	}
	p.dirty[id] = struct{}{}
	return nil
}

// DirtyCount returns the number of pages written since the last checkpoint.
func (p *Pager) DirtyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.dirty)
}

// FlushDirty writes every dirty page to the data file and syncs it (the
// checkpoint's page-flush step). On success the dirty set is cleared. It is
// a no-op in memory mode.
func (p *Pager) FlushDirty() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.file == nil {
		return nil
	}
	for id := range p.dirty {
		if int(id) > len(p.pages) {
			continue // rolled-back allocation
		}
		if err := p.file.WritePage(p.pages[id-1]); err != nil {
			return err
		}
	}
	if err := p.file.Sync(); err != nil {
		return err
	}
	p.dirty = make(map[PageID]struct{})
	return nil
}

// CloseFile closes the data file (without flushing). Safe in memory mode.
func (p *Pager) CloseFile() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.file == nil {
		return nil
	}
	err := p.file.Close()
	p.file = nil
	return err
}

// VerifyChecksums recomputes nothing in memory (pages are authoritative) but
// re-reads the data file and reports pages whose on-disk checksum fails.
// Intended for tests that assert post-checkpoint invariants.
func (p *Pager) VerifyChecksums(fsys FS, name string) ([]PageID, error) {
	_, _, corrupt, err := OpenDataFile(fsys, name)
	return corrupt, err
}

// ResetCache empties the buffer pool so that subsequent accesses behave as a
// cold run, and forgets sequentiality state. Statistics are not reset.
func (p *Pager) ResetCache() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cache = make(map[PageID]*list.Element)
	p.lru = list.New()
	p.streams = nil
}

// ResetStats zeroes the I/O counters (but keeps the buffer pool contents).
func (p *Pager) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	alloc := p.stats.PagesAllocated
	p.stats = IOStats{PagesAllocated: alloc}
}

// Stats returns a snapshot of the I/O counters.
func (p *Pager) Stats() IOStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// NumPages returns the number of pages currently allocated.
func (p *Pager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pages)
}

// SetCapacity changes the buffer pool capacity. Shrinking evicts LRU pages.
func (p *Pager) SetCapacity(capacity int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capacity = capacity
	if capacity <= 0 {
		return
	}
	for p.lru.Len() > capacity {
		back := p.lru.Back()
		delete(p.cache, back.Value.(PageID))
		p.lru.Remove(back)
	}
}
