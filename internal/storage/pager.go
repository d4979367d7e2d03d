package storage

import (
	"container/list"
	"fmt"
	"slices"
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

// RandomReadCost is the price of a random page read in sequential page reads,
// the paper's cold disk model: a 7200 RPM drive streams an 8 KB page in about
// 0.1 ms and pays about 8 ms for a random access. The planner prices access
// paths in these units and the paper harness converts them to time with it.
const RandomReadCost = 80

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

// Pager is the buffer pool: it owns every page of a database instance and
// keeps at most capacity of them in memory as frames, the least recently
// used ones first to go. A miss reads the page's slot from a page file
// (DataFile) into a fresh frame and verifies its checksum; an eviction drops
// the pool's reference to the frame. The pool's LRU is also the paper's cold
// cache: an access it serves is a hit, every other access is charged as a
// page read and classified as sequential or random, and ResetCache empties it
// so the next query runs cold.
//
// Frames are garbage-collected, never recycled, and a page's bytes in its
// frame are its only in-memory representation: readers decode records in
// place. So the one aliasing rule — the key and payload spans a batch fill
// collects (btree.Iterator.NextSpans) point into page memory and must stay
// readable until the tree they came from is next mutated — needs no pin: a span keeps its evicted frame alive until it
// is dropped. Writers hand the page they mutate back to BeforeWrite, which
// re-installs it as the page's frame, so a page evicted between Get and the
// write cannot take the write with it.
//
// Where an evicted page goes depends on the mode:
//
//   - memory mode (NewPager) with a bounded pool spills to a process-private
//     page file (FS.CreateTemp), created on the first eviction of a dirty
//     frame: the frame is written back first (steal — there is nothing to
//     recover). An unbounded pool (capacity <= 0) never evicts and never
//     creates a file.
//   - file mode (OpenPagerFile) reads from the data file and is no-steal: a
//     dirty frame stays resident until the checkpoint's FlushDirty writes it,
//     so the data file changes only at checkpoints and durability stays the
//     WAL (internal/wal) + checkpoint protocol driven by the engine. A dirty
//     frame the LRU lets go of is held in memory, and charged as a miss on its
//     next access like any page outside the pool.
//
// Sequentiality is tracked per stream: a read that continues any of the most
// recently active read positions counts as sequential. This models the
// behaviour of disk read-ahead when a query interleaves scans of a few
// objects (e.g. the two sides of an index nested-loop join), which a single
// "last page" tracker would misclassify as entirely random.
type Pager struct {
	mu       sync.Mutex
	npages   int // pages allocated: the page file's high-water mark
	capacity int // buffer pool capacity in pages; <=0 means unbounded
	pool     map[PageID]*list.Element
	lru      *list.List // the pool's frames (*Page), most recently used first
	// held are the resident frames outside the pool: dirty frames the pool
	// may not write back (no-steal, an unbounded pool, a failed write-back)
	// and pages written or restored while out of it.
	held    map[PageID]*Page
	dirty   map[PageID]struct{} // frames whose bytes the page file lacks
	streams []PageID            // recent miss positions, most recent first
	stats   IOStats

	file    *DataFile // the data file, or the spill file once created
	durable bool      // file mode: no-steal, FlushDirty writes the data file
	fs      FS        // where a memory-mode pool creates its spill file

	free []PageID   // freed page ids available for reuse
	stmt *stmtState // active statement's undo capture, or nil
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
// pages. capacity <= 0 means the pool is unbounded: nothing is evicted, and
// every page is charged as a read at most once until ResetCache is called.
// A bounded pool spills to a temporary file of the real filesystem.
func NewPager(capacity int) *Pager { return NewPagerFS(OSFS{}, capacity) }

// NewPagerFS is NewPager with the spill file created on fsys.
func NewPagerFS(fsys FS, capacity int) *Pager {
	return &Pager{
		capacity: capacity,
		pool:     make(map[PageID]*list.Element),
		lru:      list.New(),
		held:     make(map[PageID]*Page),
		dirty:    make(map[PageID]struct{}),
		fs:       fsys,
	}
}

// OpenPagerFile opens a file-mode pager over the data file at name, verifying
// every slot's checksum; no page is read into the pool until it is accessed.
// Slots whose checksum fails are reported in corrupt; the caller must
// overwrite them via ApplyPageImage (WAL replay) or fail recovery.
func OpenPagerFile(fsys FS, name string, capacity int) (p *Pager, corrupt []PageID, err error) {
	df, corrupt, err := OpenDataFile(fsys, name)
	if err != nil {
		return nil, nil, err
	}
	p = NewPagerFS(fsys, capacity)
	p.file, p.durable = df, true
	p.npages = int(df.pageCount)
	p.stats.PagesAllocated = int64(p.npages)
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

// Resident returns the number of pages in memory: the pool's frames plus the
// dirty frames held outside it.
func (p *Pager) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len() + len(p.held)
}

// Allocate creates a new zeroed page and returns it, reusing a freed page id
// when one is available. The page enters the buffer pool, which may evict
// another to make room; if that eviction's write-back fails, nothing is
// allocated and the error is returned.
func (p *Pager) Allocate() (*Page, error) {
	return p.AllocateImage(make([]byte, PageSize))
}

// AllocateImage is Allocate for a page whose bytes are img, a PageSize image
// laid out beforehand, which the page takes over: the caller must not use
// img again.
func (p *Pager) AllocateImage(img []byte) (*Page, error) {
	if len(img) != PageSize {
		return nil, fmt.Errorf("storage: a page image of %d bytes, want %d", len(img), PageSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	id, reuse := PageID(p.npages+1), len(p.free) > 0
	if reuse {
		id = p.free[len(p.free)-1]
		// A freed page's bytes are not dead: when a discarded commit group
		// rolls back this statement and then the earlier one that freed the
		// page, the page goes back to its owner with the bytes captured here.
		if p.undoPending(id) {
			old, err := p.frame(id)
			if err != nil {
				return nil, err
			}
			p.captureUndo(old)
		}
	}
	pg := &Page{id: id, data: img}
	if err := p.admit(pg); err != nil {
		return nil, err
	}
	if reuse {
		p.free = p.free[:len(p.free)-1]
	} else {
		p.npages++
	}
	p.stats.PagesAllocated++
	p.stats.PageWrites++
	p.markDirtyLocked(id)
	return pg, nil
}

// FreePage returns a page id to the freelist for reuse by later allocations.
// Existing iterators may still alias the page's frame; it lives until they
// drop it.
func (p *Pager) FreePage(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == InvalidPageID || int(id) > p.npages {
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
		if id != InvalidPageID && int(id) <= p.npages {
			p.free = append(p.free, id)
		}
	}
}

// Get returns the page with the given id, charging a read if it is not in
// the buffer pool and reading it from the page file if it is not in memory.
// An unknown id or a slot that fails its checksum returns an error: page ids
// normally only come from the pager itself, but a corrupt data file or a bug
// must fail the query, not the process.
func (p *Pager) Get(id PageID) (*Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.pool[id]; ok {
		p.lru.MoveToFront(el)
		p.stats.CacheHits++
		return el.Value.(*Page), nil
	}
	pg, err := p.frame(id)
	if err != nil {
		return nil, err
	}
	if err := p.admit(pg); err != nil {
		return nil, err
	}
	p.stats.PageReads++
	if p.extendsStream(id) {
		p.stats.SeqReads++
	} else {
		p.stats.RandReads++
	}
	return pg, nil
}

// frame returns page id's resident frame, or reads it from the page file
// into a new one, touching neither the pool nor the statistics. Caller holds
// p.mu.
func (p *Pager) frame(id PageID) (*Page, error) {
	if id == InvalidPageID || int(id) > p.npages {
		return nil, fmt.Errorf("storage: get of unknown page %d (have %d)", id, p.npages)
	}
	if el, ok := p.pool[id]; ok {
		return el.Value.(*Page), nil
	}
	if pg, ok := p.held[id]; ok {
		return pg, nil
	}
	if p.file == nil {
		return nil, fmt.Errorf("storage: page %d is neither resident nor in a page file", id)
	}
	return p.file.ReadPage(id)
}

// PageData returns the raw bytes of a page without touching the buffer-pool
// statistics. The WAL commit path uses it to copy page images.
func (p *Pager) PageData(id PageID) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pg, err := p.frame(id)
	if err != nil {
		return nil, err
	}
	return pg.data, nil
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

// admit makes pg the most recently used frame of the pool, first evicting the
// least recently used one if the pool is full. If the eviction's write-back
// fails, pg is not admitted and the error is returned. Caller holds p.mu.
func (p *Pager) admit(pg *Page) error {
	if el, ok := p.pool[pg.id]; ok {
		el.Value = pg
		p.lru.MoveToFront(el)
		return nil
	}
	if p.capacity > 0 && p.lru.Len() >= p.capacity {
		if err := p.evict(p.lru.Back()); err != nil {
			return err
		}
	}
	delete(p.held, pg.id)
	p.pool[pg.id] = p.lru.PushFront(pg)
	return nil
}

// evict takes the frame at el out of the pool. Caller holds p.mu.
func (p *Pager) evict(el *list.Element) error {
	pg := p.lru.Remove(el).(*Page)
	delete(p.pool, pg.id)
	return p.release(pg)
}

// release lets go of a frame outside the pool. A clean frame is dropped: the
// page file holds its bytes. A dirty one is written back first when the pool
// may steal (memory mode, bounded); otherwise — or when the write-back fails,
// which loses nothing — it stays resident, held. Caller holds p.mu.
func (p *Pager) release(pg *Page) error {
	if _, dirty := p.dirty[pg.id]; dirty {
		if p.durable || p.capacity <= 0 {
			p.held[pg.id] = pg
			return nil
		}
		if err := p.writeBack(pg); err != nil {
			p.held[pg.id] = pg
			return err
		}
	}
	delete(p.held, pg.id)
	return nil
}

// writeBack writes a memory-mode frame to the spill file, creating the file
// on first use. Caller holds p.mu.
func (p *Pager) writeBack(pg *Page) error {
	if p.file == nil {
		f, err := p.fs.CreateTemp()
		if err != nil {
			return fmt.Errorf("storage: create spill file: %w", err)
		}
		df, _, err := openDataFile(f, "spill")
		if err != nil {
			f.Close()
			return fmt.Errorf("storage: create spill file: %w", err)
		}
		p.file = df
	}
	if err := p.file.WritePage(pg); err != nil {
		return fmt.Errorf("storage: spill page %d: %w", pg.id, err)
	}
	delete(p.dirty, pg.id)
	return nil
}

// BeforeWrite declares that the caller is about to mutate pg. It charges a
// page write, records the page dirty, re-installs pg as the page's frame —
// the pool may have evicted it since the caller's Get — and, when a
// statement is open, captures the page's pre-image the first time the
// statement touches it, so the statement can be rolled back. Callers must
// invoke it before the mutation, not after. It leaves the pool's LRU as it
// is, so it never evicts.
func (p *Pager) BeforeWrite(pg *Page) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.PageWrites++
	p.captureUndo(pg)
	p.markDirtyLocked(pg.id)
	if el, ok := p.pool[pg.id]; ok {
		el.Value = pg
	} else {
		p.held[pg.id] = pg
	}
}

// captureUndo snapshots pg's current content into the open statement's undo
// record if the page predates the statement and has not been captured yet.
// Caller holds p.mu.
func (p *Pager) captureUndo(pg *Page) {
	if p.undoPending(pg.id) {
		p.stmt.pre[pg.id] = slices.Clone(pg.data)
	}
}

// undoPending reports whether the open statement still lacks a pre-image of
// page id: there is a statement, the page predates it, and it has not been
// captured yet. Caller holds p.mu.
func (p *Pager) undoPending(id PageID) bool {
	s := p.stmt
	if s == nil || int(id) > s.startPages {
		return false
	}
	_, ok := s.pre[id]
	return !ok
}

// markDirtyLocked adds id to the dirty set and the open statement's write
// set. Caller holds p.mu.
func (p *Pager) markDirtyLocked(id PageID) {
	p.dirty[id] = struct{}{}
	if s := p.stmt; s != nil {
		if _, ok := s.dirtySet[id]; !ok {
			s.dirtySet[id] = struct{}{}
			s.dirty = append(s.dirty, id)
		}
	}
}

// BeginStmt opens a statement scope: subsequent writes capture undo images
// until EndStmt. Statements do not nest; the engine serializes
// writers.
func (p *Pager) BeginStmt() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stmt != nil {
		panic("storage: BeginStmt with a statement already open")
	}
	p.stmt = &stmtState{
		pre:        make(map[PageID][]byte, 8),
		dirtySet:   make(map[PageID]struct{}, 8),
		startPages: p.npages,
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
		if int(id) <= u.startPages {
			p.restore(id, img)
		}
	}
	for i := u.startPages; i < p.npages; i++ {
		id := PageID(i + 1)
		if el, ok := p.pool[id]; ok {
			p.lru.Remove(el)
			delete(p.pool, id)
		}
		delete(p.held, id)
		delete(p.dirty, id)
	}
	p.npages = u.startPages
	p.free = append(p.free[:0], u.startFree...)
	p.streams = nil
}

// restore puts a page image back: into the resident frame, where readers see
// it, or into a new frame held dirty outside the pool. Caller holds p.mu.
func (p *Pager) restore(id PageID, img []byte) {
	if el, ok := p.pool[id]; ok {
		copy(el.Value.(*Page).data, img)
	} else if pg, ok := p.held[id]; ok {
		copy(pg.data, img)
	} else {
		p.held[id] = &Page{id: id, data: slices.Clone(img)}
	}
	p.dirty[id] = struct{}{}
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
	for int(id) > p.npages {
		p.npages++
		p.stats.PagesAllocated++
	}
	p.restore(id, data)
	return nil
}

// FlushDirty writes every dirty page to the data file in page order and syncs
// it (the checkpoint's page-flush step). On success the dirty set is cleared
// and the frames held outside the pool are let go. It is a no-op in memory
// mode.
func (p *Pager) FlushDirty() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.durable || p.file == nil {
		return nil
	}
	ids := make([]PageID, 0, len(p.dirty))
	for id := range p.dirty {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		pg, err := p.frame(id)
		if err != nil {
			return err
		}
		if err := p.file.WritePage(pg); err != nil {
			return err
		}
	}
	if err := p.file.Sync(); err != nil {
		return err
	}
	clear(p.dirty)
	clear(p.held)
	return nil
}

// CloseFile closes the data or spill file (without flushing). Safe in memory
// mode. The pager must not be used afterwards.
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

// VerifyChecksums re-reads the data file at name and reports the pages whose
// on-disk checksum fails. Intended for tests that assert post-checkpoint
// invariants.
func (p *Pager) VerifyChecksums(fsys FS, name string) ([]PageID, error) {
	df, corrupt, err := OpenDataFile(fsys, name)
	if err != nil {
		return nil, err
	}
	return corrupt, df.Close()
}

// ResetCache empties the buffer pool so that subsequent accesses behave as a
// cold run, and forgets sequentiality state. Statistics are not reset. The
// frames leave memory as evictions do; a write-back that fails keeps its
// frame, and the next eviction retries it.
func (p *Pager) ResetCache() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.lru.Len() > 0 {
		_ = p.evict(p.lru.Back())
	}
	p.releaseHeld()
	p.streams = nil
}

// releaseHeld offers every held frame to release again: the ones a checkpoint
// has cleaned or the pool may now steal leave memory. Caller holds p.mu.
func (p *Pager) releaseHeld() {
	for _, pg := range p.held {
		_ = p.release(pg)
	}
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
	return p.npages
}

// SetCapacity changes the buffer pool capacity. Shrinking evicts LRU pages,
// and bounding an unbounded pool lets its held frames go, both as ResetCache
// does.
func (p *Pager) SetCapacity(capacity int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capacity = capacity
	for capacity > 0 && p.lru.Len() > capacity {
		_ = p.evict(p.lru.Back())
	}
	p.releaseHeld()
}
