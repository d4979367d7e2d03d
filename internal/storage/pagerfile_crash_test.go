// Crash-surface tests for the file-backed page store itself, below the WAL:
// per-page checksum detection and the atomic meta-file write protocol. They
// live in package storage_test so they can drive the fault-injecting
// filesystem (faultfs imports storage). The names carry "Crash" so the CI
// crash-recovery job (-run Crash) exercises them alongside the engine-level
// matrix.
package storage_test

import (
	"bytes"
	"fmt"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/storage/faultfs"
)

// TestCrashDataFileChecksumDetectsCorruption: a page whose bytes rot on disk
// (torn flush, bit rot) fails its CRC on reopen and is reported corrupt;
// intact pages are unaffected.
func TestCrashDataFileChecksumDetectsCorruption(t *testing.T) {
	fs := faultfs.New(1)
	p, corrupt, err := storage.OpenPagerFile(fs, "data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 0 {
		t.Fatalf("fresh file reports corrupt pages %v", corrupt)
	}
	var ids []storage.PageID
	for i := 0; i < 4; i++ {
		pg, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		copy(pg.Data(), fmt.Sprintf("record-%d", i))
		ids = append(ids, pg.ID())
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseFile(); err != nil {
		t.Fatal(err)
	}

	// Rot one byte in the middle of the third page's slot (header is 64
	// bytes, each slot is 8+PageSize bytes, slots are 0-indexed by id-1).
	f, err := fs.OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}
	off := 64 + int64(ids[2]-1)*(storage.PageSize+8) + 8 + 100
	if _, err := f.WriteAt([]byte{0xFF}, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2, corrupt, err := storage.OpenPagerFile(fs, "data", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseFile()
	if len(corrupt) != 1 || corrupt[0] != ids[2] {
		t.Fatalf("corrupt = %v, want [%d]", corrupt, ids[2])
	}
	for i, id := range ids {
		if id == ids[2] {
			continue
		}
		pg, err := p2.Get(id)
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if want := fmt.Sprintf("record-%d", i); !bytes.HasPrefix(pg.Data(), []byte(want)) {
			t.Errorf("page %d begins %q, want %q", id, pg.Data()[:len(want)], want)
		}
	}
}

// TestCrashWriteFileAtomicNeverTorn: killing the filesystem at every
// operation of an atomic file replacement leaves either the old or the new
// contents — never a mixture, never garbage.
func TestCrashWriteFileAtomicNeverTorn(t *testing.T) {
	v1 := bytes.Repeat([]byte("old-state-"), 100)
	v2 := bytes.Repeat([]byte("NEW-STATE!"), 120)

	// Probe: how many mutating ops does the second write take?
	probe := faultfs.New(0)
	if err := storage.WriteFileAtomic(probe, "meta", v1); err != nil {
		t.Fatal(err)
	}
	base := probe.OpCount()
	if err := storage.WriteFileAtomic(probe, "meta", v2); err != nil {
		t.Fatal(err)
	}
	total := probe.OpCount() - base

	for kill := int64(1); kill <= total; kill++ {
		fs := faultfs.New(kill)
		if err := storage.WriteFileAtomic(fs, "meta", v1); err != nil {
			t.Fatal(err)
		}
		fs.SetKillAt(kill)
		err := storage.WriteFileAtomic(fs, "meta", v2) // expected to fail mid-way
		rfs := fs.Recovered()
		got, ok, rerr := storage.ReadFileAtomic(rfs, "meta")
		if rerr != nil {
			t.Fatalf("kill@%d: read after recovery: %v", kill, rerr)
		}
		if !ok {
			t.Fatalf("kill@%d: meta file vanished", kill)
		}
		if !bytes.Equal(got, v1) && !bytes.Equal(got, v2) {
			t.Fatalf("kill@%d: recovered %d bytes matching neither version", kill, len(got))
		}
		if err == nil && !bytes.Equal(got, v2) {
			t.Fatalf("kill@%d: write acknowledged but old contents survived", kill)
		}
	}
}
