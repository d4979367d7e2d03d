// Package faultfs is a fault-injecting in-memory filesystem implementing
// storage.FS, used by the crash-recovery harness. It models the failure
// surface of a real disk stack:
//
//   - unsynced writes live in a pending layer; only Sync merges them into the
//     durable layer, so a crash loses (a random subset of) them — the page
//     cache model;
//   - a kill point (SetKillAt) brings the filesystem down at the Nth mutating
//     operation: the op fails, later ops fail, and the write being executed
//     is torn (a random prefix survives in the pending layer);
//   - FailNextSyncs injects transient fsync failures that leave the
//     filesystem up — the "fsync returned EIO but the process lives" case;
//   - Recovered builds the post-crash filesystem: the durable layer plus
//     each pending write surviving with probability ½, in order, modeling
//     the kernel having flushed an arbitrary subset before power loss.
//
// Every mutating operation (WriteAt, Truncate, Sync, Rename, Remove) counts
// toward the kill point, so a test that first measures a workload's total op
// count can then re-run it killing at every WAL/commit boundary.
//
// ReadCounter sits on the same seam over any storage.FS and counts the reads
// each file serves.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"oldelephant/internal/storage"
)

// ErrInjected is the error returned by operations hit by an injected fault.
var ErrInjected = errors.New("faultfs: injected failure")

type op struct {
	truncate bool
	size     int64 // truncate target
	off      int64
	data     []byte
}

type fileState struct {
	logical []byte // what reads observe (durable + all pending)
	durable []byte // survives a crash for certain
	pending []op   // unsynced mutations, oldest first
}

func (f *fileState) apply(o op) {
	f.logical = applyOp(f.logical, o)
	f.pending = append(f.pending, o)
}

func applyOp(buf []byte, o op) []byte {
	if o.truncate {
		for int64(len(buf)) < o.size {
			buf = append(buf, 0)
		}
		return buf[:o.size]
	}
	end := o.off + int64(len(o.data))
	for int64(len(buf)) < end {
		buf = append(buf, 0)
	}
	copy(buf[o.off:end], o.data)
	return buf
}

// FS is the fault-injecting filesystem. The zero value is not usable; call New.
type FS struct {
	mu        sync.Mutex
	files     map[string]*fileState
	rng       *rand.Rand
	ops       int64
	killAt    int64 // fail the killAt-th op and go down; 0 = never
	down      bool
	syncFails int           // remaining transient Sync failures to inject
	syncDelay time.Duration // simulated device latency per Sync
}

// New creates an empty filesystem with a deterministic RNG.
func New(seed int64) *FS {
	return &FS{files: make(map[string]*fileState), rng: rand.New(rand.NewSource(seed))}
}

// SetKillAt arms the kill point: the nth mutating operation from now fails
// and brings the filesystem down (n counts from the current OpCount).
func (fs *FS) SetKillAt(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.killAt = fs.ops + n
}

// SetSyncDelay makes every Sync sleep for d first, simulating device latency.
// Group-commit tests use it: with instantaneous fsyncs there is no window for
// concurrent committers to batch behind a leader.
func (fs *FS) SetSyncDelay(d time.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncDelay = d
}

// FailNextSyncs makes the next n Sync calls fail without bringing the
// filesystem down — transient fsync errors.
func (fs *FS) FailNextSyncs(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncFails = n
}

// OpCount returns the number of mutating operations performed so far.
func (fs *FS) OpCount() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Down reports whether the filesystem has crashed.
func (fs *FS) Down() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.down
}

// Crash brings the filesystem down immediately (without an op failing).
func (fs *FS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.down = true
}

// countOp advances the op counter and reports whether this op is the kill
// point. Caller holds fs.mu; on true the caller must fail the op.
func (fs *FS) countOp() bool {
	fs.ops++
	if fs.killAt != 0 && fs.ops >= fs.killAt && !fs.down {
		fs.down = true
		return true
	}
	return false
}

// Recovered returns the filesystem a reboot would see: every file's durable
// bytes, plus each pending (unsynced) mutation surviving independently with
// probability ½ — applied in order, so surviving later writes can land on
// top of lost earlier ones, like a partially-flushed page cache. The
// returned filesystem is fresh (up, ops reset, no kill point armed).
func (fs *FS) Recovered() *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := New(fs.rng.Int63())
	for name, f := range fs.files {
		content := append([]byte(nil), f.durable...)
		for _, o := range f.pending {
			if fs.rng.Intn(2) == 0 {
				content = applyOp(content, o)
			}
		}
		out.files[name] = &fileState{
			logical: append([]byte(nil), content...),
			durable: content,
		}
	}
	return out
}

// Clone deep-copies the filesystem in its current state (including pending
// layers and op counter, excluding RNG position). The recovery-idempotence
// test uses it to replay one crash image through recovery twice.
func (fs *FS) Clone() *FS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := New(fs.rng.Int63())
	out.ops = fs.ops
	out.down = fs.down
	for name, f := range fs.files {
		nf := &fileState{
			logical: append([]byte(nil), f.logical...),
			durable: append([]byte(nil), f.durable...),
		}
		for _, o := range f.pending {
			nf.pending = append(nf.pending, op{truncate: o.truncate, size: o.size, off: o.off, data: append([]byte(nil), o.data...)})
		}
		out.files[name] = nf
	}
	return out
}

// OpenFile implements storage.FS.
func (fs *FS) OpenFile(name string) (storage.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.down {
		return nil, fmt.Errorf("open %s: %w", name, ErrInjected)
	}
	if _, ok := fs.files[name]; !ok {
		fs.files[name] = &fileState{}
	}
	return &file{fs: fs, name: name}, nil
}

// Rename implements storage.FS. A completed rename is modeled as atomic and
// durable (the real implementation fsyncs the directory); a rename hit by
// the kill point never happens.
func (fs *FS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.down {
		return fmt.Errorf("rename %s: %w", oldname, ErrInjected)
	}
	if fs.countOp() {
		return fmt.Errorf("rename %s: %w", oldname, ErrInjected)
	}
	f, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("rename %s: no such file", oldname)
	}
	fs.files[newname] = f
	delete(fs.files, oldname)
	return nil
}

// Remove implements storage.FS.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.down {
		return fmt.Errorf("remove %s: %w", name, ErrInjected)
	}
	if fs.countOp() {
		return fmt.Errorf("remove %s: %w", name, ErrInjected)
	}
	delete(fs.files, name)
	return nil
}

// Temp names the files CreateTemp makes: in error messages, and in the read
// counts of a ReadCounter.
const Temp = "(temp)"

// CreateTemp implements storage.FS. The file is outside the namespace, so no
// crash image (Recovered, Clone) carries it.
func (fs *FS) CreateTemp() (storage.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.down {
		return nil, fmt.Errorf("create %s: %w", Temp, ErrInjected)
	}
	return &file{fs: fs, name: Temp, temp: &fileState{}}, nil
}

type file struct {
	fs   *FS
	name string
	temp *fileState // a CreateTemp file's state, outside fs.files
}

func (f *file) state() (*fileState, error) {
	if f.temp != nil {
		return f.temp, nil
	}
	st, ok := f.fs.files[f.name]
	if !ok {
		return nil, fmt.Errorf("%s: file removed", f.name)
	}
	return st, nil
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.down {
		return 0, fmt.Errorf("read %s: %w", f.name, ErrInjected)
	}
	st, err := f.state()
	if err != nil {
		return 0, err
	}
	if off >= int64(len(st.logical)) {
		return 0, fmt.Errorf("read %s at %d: past EOF", f.name, off)
	}
	n := copy(p, st.logical[off:])
	if n < len(p) {
		return n, fmt.Errorf("read %s at %d: short read", f.name, off)
	}
	return n, nil
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.down {
		return 0, fmt.Errorf("write %s: %w", f.name, ErrInjected)
	}
	st, err := f.state()
	if err != nil {
		return 0, err
	}
	if f.fs.countOp() {
		// Torn write: a random prefix reaches the pending layer before the
		// crash; the caller sees a failure either way.
		keep := f.fs.rng.Intn(len(p) + 1)
		if keep > 0 {
			st.apply(op{off: off, data: append([]byte(nil), p[:keep]...)})
		}
		return 0, fmt.Errorf("write %s: %w", f.name, ErrInjected)
	}
	st.apply(op{off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

func (f *file) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.down {
		return fmt.Errorf("truncate %s: %w", f.name, ErrInjected)
	}
	st, err := f.state()
	if err != nil {
		return err
	}
	if f.fs.countOp() {
		return fmt.Errorf("truncate %s: %w", f.name, ErrInjected)
	}
	st.apply(op{truncate: true, size: size})
	return nil
}

func (f *file) Sync() error {
	f.fs.mu.Lock()
	if d := f.fs.syncDelay; d > 0 {
		// Sleep outside the lock: the device is busy, not the filesystem.
		f.fs.mu.Unlock()
		time.Sleep(d)
		f.fs.mu.Lock()
	}
	defer f.fs.mu.Unlock()
	if f.fs.down {
		return fmt.Errorf("sync %s: %w", f.name, ErrInjected)
	}
	st, err := f.state()
	if err != nil {
		return err
	}
	if f.fs.syncFails > 0 {
		// Transient failure: the filesystem stays up and the pending layer
		// stays pending (a later successful Sync may still persist it).
		f.fs.syncFails--
		return fmt.Errorf("sync %s: %w", f.name, ErrInjected)
	}
	if f.fs.countOp() {
		return fmt.Errorf("sync %s: %w", f.name, ErrInjected)
	}
	st.durable = append(st.durable[:0], st.logical...)
	st.pending = nil
	return nil
}

func (f *file) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.down {
		return 0, fmt.Errorf("size %s: %w", f.name, ErrInjected)
	}
	st, err := f.state()
	if err != nil {
		return 0, err
	}
	return int64(len(st.logical)), nil
}

func (f *file) Close() error { return nil }

// ReadCounter wraps a storage.FS and counts the ReadAt calls made on each
// file opened through it — how tests hold a pager's miss counter to the
// reads its page file actually served.
type ReadCounter struct {
	storage.FS
	mu    sync.Mutex
	reads map[string]int64
}

// CountReads wraps fsys in a ReadCounter.
func CountReads(fsys storage.FS) *ReadCounter {
	return &ReadCounter{FS: fsys, reads: make(map[string]int64)}
}

// OpenFile implements storage.FS.
func (c *ReadCounter) OpenFile(name string) (storage.File, error) {
	f, err := c.FS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return countedFile{File: f, c: c, name: name}, nil
}

// CreateTemp implements storage.FS; the file's reads count under Temp.
func (c *ReadCounter) CreateTemp() (storage.File, error) {
	f, err := c.FS.CreateTemp()
	if err != nil {
		return nil, err
	}
	return countedFile{File: f, c: c, name: Temp}, nil
}

// Reads returns the number of ReadAt calls made so far on name.
func (c *ReadCounter) Reads(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads[name]
}

type countedFile struct {
	storage.File
	c    *ReadCounter
	name string
}

func (f countedFile) ReadAt(p []byte, off int64) (int, error) {
	f.c.mu.Lock()
	f.c.reads[f.name]++
	f.c.mu.Unlock()
	return f.File.ReadAt(p, off)
}
