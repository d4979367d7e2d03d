package storage_test

import (
	"bytes"
	"slices"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/storage/faultfs"
)

// poolTrio runs one operation history on three pagers: a memory-mode pool of
// capacity 1–8 that really evicts (dirty frames spill and are read back), a
// file-mode pool of the same capacity that is no-steal (without a checkpoint
// nothing it holds dirty leaves memory), and an unbounded memory-mode pool
// that never evicts. All three must hold the same bytes in every page; the
// two bounded pools run one LRU and must count the same IOStats.
type poolTrio struct {
	t         *testing.T
	mem, file *storage.Pager
	unbounded *storage.Pager
	live      []storage.PageID
	stmtOpen  bool
}

func (r *poolTrio) all() []*storage.Pager { return []*storage.Pager{r.mem, r.file, r.unbounded} }

func (r *poolTrio) get(p *storage.Pager, id storage.PageID) *storage.Page {
	r.t.Helper()
	pg, err := p.Get(id)
	if err != nil {
		r.t.Fatalf("Get(%d): %v", id, err)
	}
	return pg
}

func (r *poolTrio) allocate() storage.PageID {
	r.t.Helper()
	var id storage.PageID
	for i, p := range r.all() {
		pg, err := p.Allocate()
		if err != nil {
			r.t.Fatalf("Allocate: %v", err)
		}
		if i > 0 && pg.ID() != id {
			r.t.Fatalf("pagers allocated different ids: %d vs %d", pg.ID(), id)
		}
		id = pg.ID()
	}
	r.live = append(r.live, id)
	return id
}

// write stamps 8 bytes of the page at off; evictFirst allocates a page between
// the Get and the write, the way a B+-tree split does, so a capacity-1 pool
// has evicted the page before BeforeWrite re-installs it.
func (r *poolTrio) write(id storage.PageID, off int, stamp byte, evictFirst bool) {
	pages := make([]*storage.Page, 3)
	for i, p := range r.all() {
		pages[i] = r.get(p, id)
	}
	if evictFirst {
		r.allocate()
	}
	for i, p := range r.all() {
		p.BeforeWrite(pages[i])
		copy(pages[i].Data()[off:], bytes.Repeat([]byte{stamp}, 8))
	}
}

// check reads every live page from every pager and compares the bytes, then
// the bounded pools' counters.
func (r *poolTrio) check(ids []storage.PageID) {
	r.t.Helper()
	for _, id := range ids {
		want := r.get(r.unbounded, id).Data()
		for _, p := range []*storage.Pager{r.mem, r.file} {
			if got := r.get(p, id).Data(); !bytes.Equal(got, want) {
				r.t.Fatalf("page %d differs from the unbounded pool's", id)
			}
		}
	}
	if m, f := r.mem.Stats(), r.file.Stats(); m != f {
		r.t.Fatalf("IOStats differ between the spilling and the no-steal pool:\n%+v\n%+v", m, f)
	}
}

// FuzzBufferPool: eviction never changes an answer or a counter. Random
// Allocate / write / Get / ResetCache / SetCapacity / FreePage / checkpoint /
// BeginStmt–EndStmt–Rollback histories run on the three pagers of poolTrio.
// A pool that spills has nothing in memory after ResetCache.
func FuzzBufferPool(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 1, 2, 3, 4, 3, 2, 1})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0x12, 0x22, 0x32, 6, 1, 0x21, 7, 3, 4, 3})
	f.Add(uint8(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 3, 0x15, 3, 9, 4, 3, 8, 10, 0, 3})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		cap0 := 1 + int(capacity%8)
		r := &poolTrio{t: t, mem: storage.NewPagerFS(faultfs.New(0), cap0), unbounded: storage.NewPager(0)}
		file, _, err := storage.OpenPagerFile(faultfs.New(0), "data", cap0)
		if err != nil {
			t.Fatal(err)
		}
		r.file = file
		defer func() {
			for _, p := range r.all() {
				_ = p.CloseFile()
			}
		}()
		for i := 0; i < len(ops) && i < 400; i++ {
			op, arg := ops[i]%11, int(ops[i]>>4)
			pick := func() (storage.PageID, bool) {
				if len(r.live) == 0 {
					return 0, false
				}
				return r.live[(arg+i)%len(r.live)], true
			}
			switch op {
			case 0:
				if r.mem.NumPages() < 48 {
					r.allocate()
				}
			case 1, 2:
				if id, ok := pick(); ok {
					r.write(id, (arg*509+i*61)%(storage.PageSize-8), byte(i), op == 2)
				}
			case 3:
				if id, ok := pick(); ok {
					r.check([]storage.PageID{id})
				}
			case 4:
				for _, p := range r.all() {
					p.ResetCache()
				}
				if n := r.mem.Resident(); n != 0 {
					t.Fatalf("a spilling pool keeps %d frames after ResetCache", n)
				}
			case 5:
				r.mem.SetCapacity(1 + arg%8)
				r.file.SetCapacity(1 + arg%8)
			case 6:
				if !r.stmtOpen {
					for _, p := range r.all() {
						p.BeginStmt()
					}
					r.stmtOpen = true
				}
			case 7, 8:
				if r.stmtOpen {
					for _, p := range r.all() {
						if u := p.EndStmt(); op == 7 {
							p.Rollback(u)
						}
					}
					r.stmtOpen = false
					r.relist()
				}
			case 9:
				if !r.stmtOpen {
					for _, p := range r.all() {
						if err := p.FlushDirty(); err != nil {
							t.Fatal(err)
						}
					}
				}
			case 10:
				if id, ok := pick(); ok && len(r.live) > 1 {
					for _, p := range r.all() {
						p.FreePage(id)
					}
					r.live = slices.DeleteFunc(r.live, func(x storage.PageID) bool { return x == id })
				}
			}
			if n := r.mem.Resident(); n > r.mem.NumPages() {
				t.Fatalf("%d frames resident for %d pages", n, r.mem.NumPages())
			}
		}
		r.check(r.live)
	})
}

// TestRollbackRestoresReusedFreedPage: one statement frees a page, the next
// reuses its id, and both roll back newest first, as a discarded commit group
// does. The page must come back with its old bytes whether its frame was in
// the pool, held, spilled or only in the data file when it was reused.
func TestRollbackRestoresReusedFreedPage(t *testing.T) {
	for _, capacity := range []int{0, 1} {
		file, _, err := storage.OpenPagerFile(faultfs.New(0), "data", capacity)
		if err != nil {
			t.Fatal(err)
		}
		for mode, p := range map[string]*storage.Pager{
			"memory": storage.NewPagerFS(faultfs.New(0), capacity),
			"file":   file,
		} {
			pg, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			copy(pg.Data(), "payload")
			if _, err := p.Allocate(); err != nil { // a capacity-1 pool evicts pg
				t.Fatal(err)
			}
			if err := p.FlushDirty(); err != nil {
				t.Fatal(err)
			}
			p.ResetCache()
			p.BeginStmt()
			p.FreePage(pg.ID())
			freed := p.EndStmt()
			p.BeginStmt()
			reused, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if reused.ID() != pg.ID() {
				t.Fatalf("%s, capacity %d: allocated page %d, not the freed %d", mode, capacity, reused.ID(), pg.ID())
			}
			copy(reused.Data(), "overwritten")
			p.Rollback(p.EndStmt())
			p.Rollback(freed)
			got, err := p.Get(pg.ID())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got.Data(), []byte("payload\x00")) {
				t.Errorf("%s, capacity %d: page %d rolled back to %q", mode, capacity, pg.ID(), got.Data()[:12])
			}
			_ = p.CloseFile()
		}
	}
}

// TestFailedAllocateAllocatesNothing: when the eviction that makes room for a
// new page cannot write its victim back, Allocate fails and leaves the pager
// as it was: no page id is taken, and the victim keeps its bytes.
func TestFailedAllocateAllocatesNothing(t *testing.T) {
	fs := faultfs.New(0)
	p := storage.NewPagerFS(fs, 1)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), "victim")
	fs.Crash() // the spill file cannot be created
	if _, err := p.Allocate(); err == nil {
		t.Fatal("Allocate succeeded without room for its page")
	}
	if n, a := p.NumPages(), p.Stats().PagesAllocated; n != 1 || a != 1 {
		t.Fatalf("a failed Allocate left %d pages (%d allocated), want 1", n, a)
	}
	got, err := p.Get(pg.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got.Data(), []byte("victim")) {
		t.Fatalf("the victim of a failed write-back reads %q", got.Data()[:6])
	}
}

// relist recomputes the live pages after a rollback, which drops the
// statement's allocations and rewinds the freelist: every allocated page not
// on it.
func (r *poolTrio) relist() {
	free := r.mem.FreeList()
	r.live = r.live[:0]
	for id := storage.PageID(1); int(id) <= r.mem.NumPages(); id++ {
		if !slices.Contains(free, id) {
			r.live = append(r.live, id)
		}
	}
}
