package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"oldelephant/internal/storage"
	"oldelephant/internal/storage/faultfs"
)

func pageImage(id storage.PageID, fill byte) PageImage {
	data := make([]byte, storage.PageSize)
	for i := range data {
		data[i] = fill
	}
	return PageImage{ID: id, Data: data}
}

func TestWALRoundTrip(t *testing.T) {
	fs := faultfs.New(1)
	w, err := Open(fs, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn1 := w.Append([]PageImage{pageImage(1, 0xAA), pageImage(2, 0xBB)}, []byte("meta1"), 1, "stmt one")
	lsn2 := w.Append([]PageImage{pageImage(1, 0xCC)}, []byte("meta2"), 2, "stmt two")
	if lsn2 != lsn1+1 {
		t.Fatalf("lsns not consecutive: %d, %d", lsn1, lsn2)
	}
	if err := w.WaitDurable(lsn2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var commits []*Commit
	w2, err := Open(fs, "wal", func(c *Commit) error {
		cp := *c
		commits = append(commits, &cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(commits) != 2 {
		t.Fatalf("replayed %d commits, want 2", len(commits))
	}
	if commits[0].LSN != lsn1 || commits[1].LSN != lsn2 {
		t.Errorf("replay lsns = %d, %d", commits[0].LSN, commits[1].LSN)
	}
	if len(commits[0].Pages) != 2 || commits[0].Pages[0].Data[0] != 0xAA {
		t.Errorf("commit 1 pages wrong: %d images", len(commits[0].Pages))
	}
	if string(commits[1].Meta) != "meta2" || commits[1].StmtKind != 2 || commits[1].Info != "stmt two" {
		t.Errorf("commit 2 logical fields wrong: %q %d %q", commits[1].Meta, commits[1].StmtKind, commits[1].Info)
	}
	// New appends continue above the replayed LSNs.
	if lsn3 := w2.Append(nil, []byte("m"), 1, "x"); lsn3 != lsn2+1 {
		t.Errorf("post-replay lsn = %d, want %d", lsn3, lsn2+1)
	}
}

func TestWALTornTailDiscarded(t *testing.T) {
	fs := faultfs.New(2)
	w, err := Open(fs, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn := w.Append([]PageImage{pageImage(1, 0x11)}, []byte("good"), 1, "ok")
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	goodSize := w.Size()
	w.Close()

	// Corrupt the tail by appending garbage (a torn frame).
	f, err := fs.OpenFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 100)
	binary.LittleEndian.PutUint32(garbage[0:4], 92) // plausible length, bad CRC
	if _, err := f.WriteAt(garbage, goodSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	n := 0
	w2, err := Open(fs, "wal", func(c *Commit) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if n != 1 {
		t.Fatalf("replayed %d commits, want 1 (torn tail discarded)", n)
	}
	if w2.Size() != goodSize {
		t.Errorf("log size %d after discard, want %d", w2.Size(), goodSize)
	}
}

// TestWALCommitGroupAtomic: a commit group whose commit frame never made it
// to disk must not be applied at all, even though its page frames are intact.
func TestWALCommitGroupAtomic(t *testing.T) {
	fs := faultfs.New(3)
	w, err := Open(fs, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	lsn1 := w.Append([]PageImage{pageImage(1, 0x11)}, []byte("one"), 1, "a")
	w.Append([]PageImage{pageImage(2, 0x22)}, []byte("two"), 1, "b")
	if err := w.WaitDurable(lsn1); err != nil { // both become durable (batched)
		t.Fatal(err)
	}
	size := w.Size()
	w.Close()

	// Chop the file mid-way into the second group: keep the first group plus
	// a bit of the second's pages frame.
	f, _ := fs.OpenFile("wal")
	if err := f.Truncate(size - 20); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()

	var lsns []int64
	w2, err := Open(fs, "wal", func(c *Commit) error { lsns = append(lsns, c.LSN); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(lsns) != 1 || lsns[0] != lsn1 {
		t.Fatalf("replayed lsns %v, want just %d", lsns, lsn1)
	}
}

func TestWALGroupCommitBatchesFsyncs(t *testing.T) {
	fs := faultfs.New(4)
	// Without simulated fsync latency there is no window to batch in.
	fs.SetSyncDelay(time.Millisecond)
	w, err := Open(fs, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const writers = 8
	const perWriter = 25
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				mu.Lock() // stands in for the engine's writer lock
				lsn := w.Append([]PageImage{pageImage(storage.PageID(g+1), byte(i))}, []byte("m"), 1, fmt.Sprintf("w%d-%d", g, i))
				mu.Unlock()
				if err := w.WaitDurable(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := w.Stats()
	if s.Commits != writers*perWriter {
		t.Fatalf("commits = %d, want %d", s.Commits, writers*perWriter)
	}
	if s.Syncs >= s.Commits {
		t.Errorf("group commit did not batch: %d syncs for %d commits", s.Syncs, s.Commits)
	}
	t.Logf("fsyncs/commit = %.3f (%d syncs, %d commits)", float64(s.Syncs)/float64(s.Commits), s.Syncs, s.Commits)
}

func TestWALSyncFailureDiscardsPending(t *testing.T) {
	fs := faultfs.New(5)
	w, err := Open(fs, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn1 := w.Append([]PageImage{pageImage(1, 0x01)}, []byte("a"), 1, "a")
	if err := w.WaitDurable(lsn1); err != nil {
		t.Fatal(err)
	}
	fs.FailNextSyncs(1)
	lsn2 := w.Append([]PageImage{pageImage(2, 0x02)}, []byte("b"), 1, "b")
	if err := w.WaitDurable(lsn2); err == nil {
		t.Fatal("expected WaitDurable to fail on injected fsync error")
	}
	if got := w.DiscardedLSN(); got < lsn2 {
		t.Errorf("DiscardedLSN = %d, want >= %d", got, lsn2)
	}
	if got := w.Stats().Aborts; got != 1 {
		t.Errorf("Stats().Aborts = %d, want 1", got)
	}
	// A waiter for the discarded LSN gets ErrDiscarded, not a hang.
	if err := w.WaitDurable(lsn2); !errors.Is(err, ErrDiscarded) {
		t.Errorf("re-wait = %v, want ErrDiscarded", err)
	}
	// The log recovers: the next commit succeeds and replay sees exactly the
	// durable commits.
	lsn3 := w.Append([]PageImage{pageImage(3, 0x03)}, []byte("c"), 1, "c")
	if err := w.WaitDurable(lsn3); err != nil {
		t.Fatalf("commit after transient failure: %v", err)
	}
	w.Close()
	var infos []string
	w2, err := Open(fs, "wal", func(c *Commit) error { infos = append(infos, c.Info); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(infos) != 2 || infos[0] != "a" || infos[1] != "c" {
		t.Errorf("replayed %v, want [a c] (discarded b absent)", infos)
	}
}

func TestWALTruncate(t *testing.T) {
	fs := faultfs.New(6)
	w, err := Open(fs, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn := w.Append([]PageImage{pageImage(1, 0x01)}, []byte("a"), 1, "a")
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Errorf("size %d after truncate", w.Size())
	}
	// LSNs stay monotonic across truncation.
	if lsn2 := w.Append(nil, []byte("b"), 1, "b"); lsn2 != lsn+1 {
		t.Errorf("post-truncate lsn = %d, want %d", lsn2, lsn+1)
	}
}

func TestWALLargeStatementSplitsFrames(t *testing.T) {
	fs := faultfs.New(7)
	w, err := Open(fs, "wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	// More pages than pagesPerFrame forces multiple kindPages frames.
	images := make([]PageImage, pagesPerFrame+13)
	for i := range images {
		images[i] = pageImage(storage.PageID(i+1), byte(i))
	}
	lsn := w.Append(images, []byte("big"), 3, "bulk")
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var got *Commit
	w2, err := Open(fs, "wal", func(c *Commit) error { cp := *c; got = &cp; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got == nil || len(got.Pages) != len(images) {
		t.Fatalf("replayed commit has %d pages, want %d", len(got.Pages), len(images))
	}
	for i, img := range got.Pages {
		if img.ID != images[i].ID || img.Data[0] != images[i].Data[0] {
			t.Fatalf("page %d mismatch after split-frame replay", i)
		}
	}
}
