// Engine durability: the commit path tying statements to the WAL, crash
// recovery on open, and the checkpoint protocol.
//
// Commit protocol (file-backed engines): every mutating statement runs inside
// a pager statement scope that captures undo images. On success the engine
// appends one commit group to the WAL — the full images of every page the
// statement wrote, the post-statement state snapshot (catalog meta, views,
// freelist) and a commit marker — while still holding the writer lock, then
// releases the lock and calls WaitDurable. Group commit happens there:
// concurrent committers batch behind a single fsync leader. The statement is
// acknowledged only after its log records are durable.
//
// If the log write or fsync fails, the WAL discards every pending commit
// group and the engine rolls the corresponding statements back (newest
// first) and restores the pre-state snapshot, so an unacknowledged commit is
// never visible — a transient fsync failure costs the statements in flight,
// not the process.
//
// Recovery on open: load the data file (verifying per-page checksums),
// replay the WAL's complete commit groups over it (physical redo is
// idempotent), install the last committed state snapshot, verify that every
// corrupt data-file page was overwritten by redo or is free, and checkpoint.
//
// Checkpoint: force the WAL durable, flush dirty pages to the data file,
// atomically replace the meta file with the current snapshot, then truncate
// the log. Every crash window in that sequence is safe: until the truncate,
// the WAL still holds (an idempotent superset of) everything the flush wrote.
package engine

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"oldelephant/internal/sql"
	"oldelephant/internal/storage"
	"oldelephant/internal/wal"
)

const (
	dataFileName = "elephant.data"
	walFileName  = "elephant.wal"
	metaFileName = "elephant.meta"

	stateVersion = 1
)

// Statement kinds recorded in WAL commit markers.
const (
	StmtDDL    byte = 1
	StmtInsert byte = 2
	StmtBulk   byte = 3
)

// pendingCommit is a statement whose WAL records are appended but not yet
// durable: enough to roll it back if the log write fails.
type pendingCommit struct {
	lsn     int64
	undo    *storage.StmtUndo
	preMeta []byte // state snapshot from before the statement
}

// Durable reports whether the engine writes a WAL and data file.
func (e *Engine) Durable() bool { return e.wal != nil }

// WALStats returns the group-commit counters (zero for in-memory engines).
func (e *Engine) WALStats() wal.Stats {
	if e.wal == nil {
		return wal.Stats{}
	}
	return e.wal.Stats()
}

// WALSize returns the durable log bytes accumulated since the last
// checkpoint/truncate (0 for in-memory engines) — the "log bytes since
// checkpoint" series exported by the metrics registry.
func (e *Engine) WALSize() int64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.Size()
}

// ResetWALStats zeroes the group-commit counters (benchmark harness use).
func (e *Engine) ResetWALStats() {
	if e.wal != nil {
		e.wal.ResetStats()
	}
}

// Open creates or reopens a durable engine. With a DataDir (or an explicit
// FS for fault-injection tests) the engine recovers from its data file and
// WAL; with neither it degrades to New (a memory-mode engine).
func Open(opts Options) (*Engine, error) {
	fsys := opts.FS
	if fsys == nil {
		if opts.DataDir == "" {
			return New(opts), nil
		}
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, err
		}
		fsys = storage.OSFS{}
	}
	dataPath := filepath.Join(opts.DataDir, dataFileName)
	walPath := filepath.Join(opts.DataDir, walFileName)
	metaPath := filepath.Join(opts.DataDir, metaFileName)

	pager, corrupt, err := storage.OpenPagerFile(fsys, dataPath, opts.BufferPoolPages)
	if err != nil {
		return nil, fmt.Errorf("engine: open data file: %w", err)
	}
	e := newWithPager(opts, pager)
	e.fsys = fsys
	e.dataPath, e.walPath, e.metaPath = dataPath, walPath, metaPath

	// The state to install is the checkpointed snapshot unless the WAL holds
	// a newer committed one.
	state, _, err := storage.ReadFileAtomic(fsys, metaPath)
	if err != nil {
		return nil, fmt.Errorf("engine: read meta: %w", err)
	}
	redone := make(map[storage.PageID]bool)
	w, err := wal.Open(fsys, walPath, func(c *wal.Commit) error {
		for _, img := range c.Pages {
			if err := pager.ApplyPageImage(img.ID, img.Data); err != nil {
				return err
			}
			redone[img.ID] = true
		}
		if len(c.Meta) > 0 {
			state = append([]byte(nil), c.Meta...)
		}
		return nil
	})
	if err != nil {
		_ = pager.CloseFile()
		return nil, fmt.Errorf("engine: replay wal: %w", err)
	}
	e.wal = w
	if len(state) > 0 {
		if err := e.restoreState(state); err != nil {
			e.shutdownFiles()
			return nil, fmt.Errorf("engine: restore state: %w", err)
		}
	}
	// A page whose on-disk checksum failed must have been rewritten by redo,
	// or be unreachable (free); otherwise data was lost and opening must fail
	// loudly rather than serve corrupt rows.
	if len(corrupt) > 0 {
		free := make(map[storage.PageID]bool)
		for _, id := range e.pager.FreeList() {
			free[id] = true
		}
		for _, id := range corrupt {
			if !redone[id] && !free[id] {
				e.shutdownFiles()
				return nil, fmt.Errorf("engine: page %d failed its checksum and no log record covers it", id)
			}
		}
	}
	// Checkpoint so the next open starts from a short (empty) log.
	if err := e.Checkpoint(); err != nil {
		e.shutdownFiles()
		return nil, fmt.Errorf("engine: recovery checkpoint: %w", err)
	}
	return e, nil
}

func (e *Engine) shutdownFiles() {
	if e.wal != nil {
		_ = e.wal.Close()
	}
	_ = e.pager.CloseFile()
}

// mutateLocked runs one mutating statement under the writer lock the caller
// holds. In memory mode it just runs fn. In durable mode it wraps fn in a
// statement scope, appends the commit group to the WAL on success (returning
// its LSN for the caller to await after releasing the lock), and rolls back
// on failure so a failed statement leaves no trace.
func (e *Engine) mutateLocked(kind byte, info string, fn func() (*Result, error)) (*Result, int64, error) {
	if e.wal == nil {
		res, err := fn()
		return res, 0, err
	}
	if err := e.reconcileLocked(); err != nil {
		return nil, 0, err
	}
	preMeta := e.encodeState()
	e.pager.BeginStmt()
	res, err := fn()
	undo := e.pager.EndStmt()
	if err == nil {
		var pages []wal.PageImage
		pages, err = e.commitImages(undo)
		if err == nil {
			lsn := e.wal.Append(pages, e.encodeState(), kind, info)
			e.pending = append(e.pending, pendingCommit{lsn: lsn, undo: undo, preMeta: preMeta})
			return res, lsn, nil
		}
	}
	e.pager.Rollback(undo)
	if rerr := e.restoreState(preMeta); rerr != nil {
		return nil, 0, fmt.Errorf("engine: statement failed (%v) and rollback failed: %w", err, rerr)
	}
	return nil, 0, err
}

// commitImages copies the full image of every page the statement wrote.
func (e *Engine) commitImages(undo *storage.StmtUndo) ([]wal.PageImage, error) {
	dirty := undo.Dirty()
	pages := make([]wal.PageImage, 0, len(dirty))
	for _, id := range dirty {
		data, err := e.pager.PageData(id)
		if err != nil {
			return nil, err
		}
		pages = append(pages, wal.PageImage{ID: id, Data: data})
	}
	return pages, nil
}

// waitDurable blocks until the statement's commit group is on disk, then
// reconciles the pending list. Called after the writer lock is released so
// concurrent committers share one fsync (group commit).
func (e *Engine) waitDurable(lsn int64) error {
	err := e.wal.WaitDurable(lsn)
	e.stateMu.Lock()
	rerr := e.reconcileLocked()
	e.stateMu.Unlock()
	if err != nil {
		return err
	}
	return rerr
}

// reconcileLocked settles the pending-commit list against the WAL: durable
// commits are forgotten; discarded commits (a log write failed) are rolled
// back newest-first and the pre-state snapshot of the oldest is restored, so
// the engine returns to the last acknowledged state. Callers hold the writer
// lock; running it at every mutation entry guarantees no new statement ever
// builds on top of a discarded, not-yet-rolled-back one.
func (e *Engine) reconcileLocked() error {
	if e.wal == nil || len(e.pending) == 0 {
		return nil
	}
	durable := e.wal.DurableLSN()
	n := 0
	for n < len(e.pending) && e.pending[n].lsn <= durable {
		n++
	}
	if n > 0 {
		e.pending = append(e.pending[:0], e.pending[n:]...)
	}
	if len(e.pending) == 0 || e.pending[0].lsn > e.wal.DiscardedLSN() {
		return nil
	}
	// Every remaining pending commit was discarded by a log failure (discard
	// always covers all pending appends, and no commit was appended since —
	// mutation entry reconciles first).
	oldest := e.pending[0]
	for i := len(e.pending) - 1; i >= 0; i-- {
		e.pager.Rollback(e.pending[i].undo)
	}
	e.pending = e.pending[:0]
	e.invalidatePlans()
	if err := e.restoreState(oldest.preMeta); err != nil {
		return fmt.Errorf("engine: rollback of discarded commits failed: %w", err)
	}
	return nil
}

// Checkpoint forces the WAL durable, flushes dirty pages to the data file,
// atomically replaces the meta snapshot and truncates the log. No-op for
// memory-mode engines.
func (e *Engine) Checkpoint() error {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	if e.wal == nil {
		return nil
	}
	if err := e.wal.SyncAll(); err != nil {
		rerr := e.reconcileLocked()
		if rerr != nil {
			return rerr
		}
		return err
	}
	if err := e.reconcileLocked(); err != nil {
		return err
	}
	if err := e.pager.FlushDirty(); err != nil {
		return fmt.Errorf("engine: checkpoint flush: %w", err)
	}
	if err := storage.WriteFileAtomic(e.fsys, e.metaPath, e.encodeState()); err != nil {
		return fmt.Errorf("engine: checkpoint meta: %w", err)
	}
	return e.wal.Truncate()
}

// Close checkpoints (durable engines) and releases the files: a durable
// engine's data file and log, an in-memory one's spill file. The engine must
// not be used afterwards.
func (e *Engine) Close() error {
	if e.wal == nil {
		return e.pager.CloseFile()
	}
	err := e.Checkpoint()
	if werr := e.wal.Close(); err == nil {
		err = werr
	}
	if perr := e.pager.CloseFile(); err == nil {
		err = perr
	}
	return err
}

// encodeState serializes everything above the pages that recovery needs: the
// catalog meta (schemas, tree roots, heap chains, stats), the pager freelist
// and the materialized-view definitions (as re-parseable SQL).
func (e *Engine) encodeState() []byte {
	buf := []byte{stateVersion}
	cat := e.cat.EncodeMeta()
	buf = binary.AppendUvarint(buf, uint64(len(cat)))
	buf = append(buf, cat...)
	free := e.pager.FreeList()
	buf = binary.AppendUvarint(buf, uint64(len(free)))
	for _, id := range free {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	views := e.Views()
	names := make([]string, 0, len(views))
	for name := range views {
		names = append(names, name)
	}
	// Deterministic order: recovery replay must be byte-stable.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j-1] > names[j]; j-- {
			names[j-1], names[j] = names[j], names[j-1]
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	appendStr := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	appendStrs := func(ss []string) {
		buf = binary.AppendUvarint(buf, uint64(len(ss)))
		for _, s := range ss {
			appendStr(s)
		}
	}
	for _, name := range names {
		v := views[name]
		appendStr(v.Name)
		appendStr(v.Table)
		appendStr(v.Query.String())
		appendStrs(v.GroupColumns)
		appendStrs(v.AggColumns)
		appendStrs(v.Aggregates)
	}
	return buf
}

// restoreState rebuilds the catalog, freelist and view definitions from an
// encodeState snapshot, over whatever pages the pager currently holds.
func (e *Engine) restoreState(data []byte) error {
	r := stateReader{buf: data}
	if v := r.u8(); v != stateVersion {
		return fmt.Errorf("engine: state version %d not supported", v)
	}
	cat := r.bytes()
	nfree := int(r.uv())
	free := make([]storage.PageID, 0, nfree)
	for i := 0; i < nfree && r.err == nil; i++ {
		free = append(free, storage.PageID(r.uv()))
	}
	nviews := int(r.uv())
	views := make(map[string]*ViewDef, nviews)
	for i := 0; i < nviews && r.err == nil; i++ {
		v := &ViewDef{Name: r.str(), Table: r.str()}
		query := r.str()
		v.GroupColumns = r.strs()
		v.AggColumns = r.strs()
		v.Aggregates = r.strs()
		if r.err != nil {
			break
		}
		stmt, err := sql.ParseSelect(query)
		if err != nil {
			return fmt.Errorf("engine: restore view %q: %w", v.Name, err)
		}
		v.Query = stmt
		views[strings.ToLower(v.Name)] = v
	}
	if r.err != nil {
		return r.err
	}
	if err := e.cat.RestoreMeta(cat); err != nil {
		return err
	}
	e.pager.SetFreeList(free)
	e.viewMu.Lock()
	e.views = views
	e.viewMu.Unlock()
	return nil
}

type stateReader struct {
	buf []byte
	off int
	err error
}

func (r *stateReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("engine: truncated state snapshot at offset %d", r.off)
	}
}

func (r *stateReader) u8() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *stateReader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *stateReader) bytes() []byte {
	n := int(r.uv())
	if r.err != nil || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *stateReader) str() string { return string(r.bytes()) }

func (r *stateReader) strs() []string {
	n := int(r.uv())
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}
