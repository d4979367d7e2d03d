// Package wal implements the write-ahead log behind the engine's durability:
// physical redo records (full page images) plus logical records (the catalog
// meta snapshot and a commit marker describing the statement), group commit
// with a single fsync leader batching concurrent committers, torn-tail
// detection on replay, and truncation at checkpoints.
//
// On-disk format: a sequence of frames, each
//
//	[4B payload length][4B CRC32-C of payload][payload]
//
// where payload = [1B record kind][8B LSN][body]. One committed statement is
// a *commit group* of three frames sharing an LSN:
//
//	kindPages  body = [4B n] then n × ([8B page id][4B len][page image])
//	kindMeta   body = the catalog meta (catalog.EncodeMeta) after the statement
//	kindCommit body = [1B statement kind][info string]
//
// Replay applies a group only when all three frames are intact (the commit
// frame is the group's atomicity point); a torn or short tail frame ends
// replay and is discarded by truncating the log back to the last complete
// group. Page-image redo is idempotent, so replaying the same log twice —
// e.g. after a crash during recovery — converges to identical state.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"oldelephant/internal/storage"
)

const (
	kindPages  byte = 1
	kindMeta   byte = 2
	kindCommit byte = 3

	frameHeaderSize = 8
	// maxFrameSize bounds a single frame so a corrupt length field cannot ask
	// replay to allocate gigabytes. Page groups of a huge statement are split
	// into several kindPages frames well below this.
	maxFrameSize = 64 << 20
	// pagesPerFrame bounds how many page images share one kindPages frame.
	pagesPerFrame = 512
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrDiscarded is returned to committers whose statement's log records were
// thrown away because a log write or fsync failed before they became durable.
var ErrDiscarded = errors.New("wal: commit discarded after log write failure")

// PageImage is one physical redo record: the full content of a page.
type PageImage struct {
	ID   storage.PageID
	Data []byte
}

// Commit is one replayed commit group.
type Commit struct {
	LSN      int64
	Pages    []PageImage
	Meta     []byte
	StmtKind byte
	Info     string
}

// Stats counts the group-commit behaviour; the benchmark harness derives
// fsyncs/commit from it.
type Stats struct {
	// Commits is the number of commit groups appended.
	Commits int64
	// Syncs is the number of fsyncs issued by group-commit leaders.
	Syncs int64
	// BytesWritten is the total log bytes written.
	BytesWritten int64
	// Aborts is the number of times the pending commit groups were dropped
	// instead of being made durable: a group-commit leader's write or fsync
	// failed.
	Aborts int64
}

// WAL is the write-ahead log of one engine instance.
//
// Concurrency model: Append runs under the engine's exclusive writer lock, so
// appends are serialized. WaitDurable is called after that lock is released;
// concurrent waiters elect a leader that writes and fsyncs everything pending
// (group commit) while the rest block on their LSN. A failed write or fsync
// discards every pending record — the engine pairs that with rolling back the
// corresponding statements — and fails their waiters with ErrDiscarded.
type WAL struct {
	mu   sync.Mutex
	cond *sync.Cond

	f       storage.File
	nextLSN int64

	// pending is the serialized frames appended but not yet written+synced.
	pending []byte
	// pendingLSN is the highest LSN in pending (0 = none).
	pendingLSN int64
	// durableLSN is the highest LSN known durable on disk.
	durableLSN int64
	// durableOff is the file offset of the end of the durable prefix.
	durableOff int64
	// syncing is true while a leader is inside write+fsync.
	syncing bool
	// discardedBelow fails waiters with LSN <= it (set on write failure).
	discardedBelow int64

	stats Stats
}

// Open opens (or creates) the log at path, replays every complete commit
// group through apply in LSN order, and truncates any torn tail so the next
// append lands at the end of the durable prefix. apply may be nil to discard.
func Open(fsys storage.FS, path string, apply func(c *Commit) error) (*WAL, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, err
	}
	w := &WAL{f: f, nextLSN: 1}
	w.cond = sync.NewCond(&w.mu)
	if err := w.replay(apply); err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail (and position appends) by truncating to the end of
	// the last complete commit group.
	if err := f.Truncate(w.durableOff); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// replay scans the log, applying complete commit groups. It stops at the
// first frame that is short, oversized, or fails its checksum — the torn
// tail — and records the end offset of the last complete group.
func (w *WAL) replay(apply func(c *Commit) error) error {
	size, err := w.f.Size()
	if err != nil {
		return err
	}
	var (
		off     int64
		hdr     [frameHeaderSize]byte
		cur     *Commit
		groupOK int64 // offset after the last applied commit frame
		lastLSN int64
	)
scan:
	for off+frameHeaderSize <= size {
		if _, err := w.f.ReadAt(hdr[:], off); err != nil {
			break
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n < 9 || n > maxFrameSize || off+frameHeaderSize+int64(n) > size {
			break // torn or garbage length
		}
		payload := make([]byte, n)
		if _, err := w.f.ReadAt(payload, off+frameHeaderSize); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != want {
			break // torn write inside the frame
		}
		kind := payload[0]
		lsn := int64(binary.LittleEndian.Uint64(payload[1:9]))
		body := payload[9:]
		off += frameHeaderSize + int64(n)
		if cur == nil || cur.LSN != lsn {
			cur = &Commit{LSN: lsn}
		}
		switch kind {
		case kindPages:
			images, err := decodePages(body)
			if err != nil {
				break scan // treat a malformed body as a torn tail
			}
			cur.Pages = append(cur.Pages, images...)
		case kindMeta:
			cur.Meta = append([]byte(nil), body...)
		case kindCommit:
			if len(body) < 1 {
				break scan
			}
			cur.StmtKind = body[0]
			cur.Info = string(body[1:])
			if apply != nil {
				if err := apply(cur); err != nil {
					return err
				}
			}
			groupOK = off
			lastLSN = lsn
			cur = nil
		default:
			// Unknown kind: future format. Stop replay here (torn-tail rule).
			break scan
		}
	}
	w.durableOff = groupOK
	w.durableLSN = lastLSN
	w.nextLSN = lastLSN + 1
	return nil
}

func decodePages(body []byte) ([]PageImage, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("wal: short pages body")
	}
	n := int(binary.LittleEndian.Uint32(body[:4]))
	body = body[4:]
	// Every image takes at least its 12-byte header, so a count above that is
	// corrupt: refusing it before sizing the slice keeps a crafted frame from
	// allocating without bound.
	if n > len(body)/12 {
		return nil, fmt.Errorf("wal: %d page images declared in a body of %d bytes", n, len(body))
	}
	out := make([]PageImage, 0, n)
	for i := 0; i < n; i++ {
		if len(body) < 12 {
			return nil, fmt.Errorf("wal: short page image header")
		}
		id := storage.PageID(binary.LittleEndian.Uint64(body[0:8]))
		sz := int(binary.LittleEndian.Uint32(body[8:12]))
		body = body[12:]
		if len(body) < sz {
			return nil, fmt.Errorf("wal: short page image")
		}
		out = append(out, PageImage{ID: id, Data: body[:sz]})
		body = body[sz:]
	}
	return out, nil
}

func (w *WAL) appendFrame(kind byte, lsn int64, body []byte) {
	payload := make([]byte, 9+len(body))
	payload[0] = kind
	binary.LittleEndian.PutUint64(payload[1:9], uint64(lsn))
	copy(payload[9:], body)
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	w.pending = append(w.pending, hdr[:]...)
	w.pending = append(w.pending, payload...)
}

// Append serializes one statement's commit group — page images (copied), the
// meta snapshot, and the commit marker — into the pending buffer and returns
// its LSN. It must run under the engine's writer lock (appends are ordered);
// the data is copied immediately, so the caller may mutate pages afterwards.
// Durability happens later, in WaitDurable.
func (w *WAL) Append(pages []PageImage, meta []byte, stmtKind byte, info string) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	w.nextLSN++
	for start := 0; start == 0 || start < len(pages); start += pagesPerFrame {
		chunk := pages[start:min(start+pagesPerFrame, len(pages))]
		body := make([]byte, 4, 4+len(chunk)*(12+storage.PageSize))
		binary.LittleEndian.PutUint32(body[:4], uint32(len(chunk)))
		for _, img := range chunk {
			var ph [12]byte
			binary.LittleEndian.PutUint64(ph[0:8], uint64(img.ID))
			binary.LittleEndian.PutUint32(ph[8:12], uint32(len(img.Data)))
			body = append(body, ph[:]...)
			body = append(body, img.Data...)
		}
		w.appendFrame(kindPages, lsn, body)
	}
	w.appendFrame(kindMeta, lsn, meta)
	commitBody := make([]byte, 1+len(info))
	commitBody[0] = stmtKind
	copy(commitBody[1:], info)
	w.appendFrame(kindCommit, lsn, commitBody)
	w.pendingLSN = lsn
	w.stats.Commits++
	return lsn
}

// WaitDurable blocks until the commit group with the given LSN is durable on
// disk, electing the caller as the fsync leader when none is active: the
// leader writes and fsyncs everything pending — batching every concurrent
// committer's records into one fsync (group commit). A write or fsync
// failure discards all pending records (the log is truncated back to its
// durable prefix) and fails every affected waiter; the engine responds by
// rolling back the corresponding statements.
func (w *WAL) WaitDurable(lsn int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if lsn <= w.durableLSN {
			return nil
		}
		if lsn <= w.discardedBelow {
			return ErrDiscarded
		}
		if !w.syncing {
			break // become the leader
		}
		w.cond.Wait()
	}
	// Leader: take the pending batch, release the lock while doing I/O so
	// later committers can queue more records behind us.
	batch := w.pending
	batchLSN := w.pendingLSN
	off := w.durableOff
	w.pending = nil
	w.syncing = true
	w.mu.Unlock()

	var err error
	if len(batch) > 0 {
		if _, werr := w.f.WriteAt(batch, off); werr != nil {
			err = werr
		} else if serr := w.f.Sync(); serr != nil {
			err = serr
		}
	}

	w.mu.Lock()
	w.syncing = false
	if err != nil {
		// The batch (and anything queued behind it while we were writing) is
		// no longer trustworthy: drop it all.
		w.discardPendingLocked()
		return fmt.Errorf("wal: commit not durable: %w", err)
	}
	if len(batch) > 0 {
		w.stats.Syncs++
		w.stats.BytesWritten += int64(len(batch))
		w.durableOff = off + int64(len(batch))
		w.durableLSN = batchLSN
	}
	w.cond.Broadcast()
	if lsn <= w.durableLSN {
		return nil
	}
	if lsn <= w.discardedBelow {
		return ErrDiscarded
	}
	// A rare race: our own records were taken by an earlier leader whose sync
	// failed after we queued. Loop again via recursion-free retry.
	w.mu.Unlock()
	err = w.WaitDurable(lsn)
	w.mu.Lock()
	return err
}

// SyncAll forces everything appended so far durable (checkpoint step 1).
func (w *WAL) SyncAll() error {
	w.mu.Lock()
	lsn := w.pendingLSN
	if lsn == 0 {
		lsn = w.durableLSN
	}
	w.mu.Unlock()
	if lsn == 0 {
		return nil
	}
	return w.WaitDurable(lsn)
}

// discardPendingLocked drops every appended-but-not-durable record without
// writing it, rewinds the file to the durable prefix, fails every waiter
// above the durable LSN and counts the abort. Callers hold w.mu.
func (w *WAL) discardPendingLocked() {
	w.stats.Aborts++
	w.pending = nil
	w.pendingLSN = 0
	w.discardedBelow = w.nextLSN - 1
	_ = w.f.Truncate(w.durableOff)
	w.cond.Broadcast()
}

// Truncate empties the log (checkpoint final step: the data file and meta
// now cover everything the log did). LSNs keep increasing monotonically.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) > 0 {
		return fmt.Errorf("wal: truncate with pending records")
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.durableOff = 0
	return nil
}

// Size returns the current durable log size in bytes (pending excluded).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durableOff
}

// DurableLSN returns the highest LSN known durable.
func (w *WAL) DurableLSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durableLSN
}

// DiscardedLSN returns the highest LSN whose records were discarded after a
// log failure (0 when nothing was ever discarded). Commits at or below it
// never became durable; the engine rolls their statements back.
func (w *WAL) DiscardedLSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.discardedBelow
}

// Stats returns a snapshot of the group-commit counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// ResetStats zeroes the group-commit counters (benchmark harness use).
func (w *WAL) ResetStats() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats = Stats{}
}

// Close closes the log file without syncing.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
