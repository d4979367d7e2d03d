// Engine durability: the commit path tying statements to the WAL, crash
// recovery on open, and the checkpoint protocol.
//
// The one snapshot of recoverable state above the pages is the catalog meta
// (Catalog.EncodeMeta): schemas, tree anchors, statistics, each
// view's defining SQL and the pager's freelist. WAL meta frames, the
// checkpointed meta file and a pending statement's pre-state all hold exactly
// those bytes; restoreState installs them and re-parses the views.
//
// Statement atomicity (both modes): every mutating statement runs inside a
// pager statement scope that captures undo images; a statement that fails
// part-way is rolled back and the pre-statement meta restored, so a multi-row
// INSERT refused at a later row keeps none of its rows.
//
// Commit protocol (file-backed engines): on success the engine appends one commit group to the WAL — the full images of every page the
// statement wrote, the post-statement catalog meta and a commit marker —
// while still holding the writer lock, then releases the lock and calls
// WaitDurable. Group commit happens there: concurrent committers batch behind
// a single fsync leader. The statement is acknowledged only after its log
// records are durable.
//
// If the log write or fsync fails, the WAL discards every pending commit
// group and the engine rolls the corresponding statements back (newest
// first) and restores the pre-statement meta, so an unacknowledged commit is
// never visible — a transient fsync failure costs the statements in flight,
// not the process.
//
// Recovery on open: load the data file (verifying per-page checksums),
// replay the WAL's complete commit groups over it (physical redo is
// idempotent), install the last committed meta, verify that every corrupt
// data-file page was overwritten by redo or is free, and checkpoint.
//
// Checkpoint: force the WAL durable, flush dirty pages to the data file,
// atomically replace the meta file with the current meta, then truncate the
// log. Every crash window in that sequence is safe: until the truncate, the
// WAL still holds (an idempotent superset of) everything the flush wrote.
package engine

import (
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
	preMeta []byte // catalog meta from before the statement
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
// holds. It wraps fn in a statement scope and rolls back on failure, so a
// failed statement leaves no trace in either mode. On success a durable
// engine appends the commit group to the WAL and returns its LSN for the
// caller to await after releasing the lock; an in-memory one has nothing
// more to do.
func (e *Engine) mutateLocked(kind byte, info string, fn func() (*Result, error)) (*Result, int64, error) {
	if err := e.reconcileLocked(); err != nil {
		return nil, 0, err
	}
	preMeta := e.cat.EncodeMeta()
	e.pager.BeginStmt()
	res, err := fn()
	undo := e.pager.EndStmt()
	if err == nil {
		if e.wal == nil {
			return res, 0, nil
		}
		var pages []wal.PageImage
		pages, err = e.commitImages(undo)
		if err == nil {
			lsn := e.wal.Append(pages, e.cat.EncodeMeta(), kind, info)
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
// back newest-first and the pre-statement meta of the oldest is restored, so
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
	defer e.invalidatePlans() // after the restore: shapes settle against it
	if err := e.restoreState(oldest.preMeta); err != nil {
		return fmt.Errorf("engine: rollback of discarded commits failed: %w", err)
	}
	return nil
}

// Checkpoint forces the WAL durable, flushes dirty pages to the data file,
// atomically replaces the meta file and truncates the log. No-op for
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
	if err := storage.WriteFileAtomic(e.fsys, e.metaPath, e.cat.EncodeMeta()); err != nil {
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

// restoreState installs a catalog meta snapshot (Catalog.RestoreMeta: the
// tables and the freelist) over whatever pages the pager currently holds, then
// rebuilds the parsed view definitions from the tables that carry one.
func (e *Engine) restoreState(meta []byte) error {
	if err := e.cat.RestoreMeta(meta); err != nil {
		return err
	}
	views := make(map[string]*ViewDef)
	for _, t := range e.cat.Tables() {
		if t.Definition == "" {
			continue
		}
		query, err := sql.ParseSelect(t.Definition)
		if err != nil {
			return fmt.Errorf("engine: restore view %q: %w", t.Name, err)
		}
		def, err := newViewDef(t.Name, query, t.ColumnNames())
		if err != nil {
			return err
		}
		views[strings.ToLower(t.Name)] = def
	}
	e.viewMu.Lock()
	e.views = views
	e.viewMu.Unlock()
	return nil
}
