package wal

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"oldelephant/internal/storage/faultfs"
)

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodePagesRefusesCountsBeyondBody: a pages body of 4 bytes that
// declares 2^20 or 2^32-1 page images is an error, found before anything is
// sized by the count. The 2^20 body once allocated 32 MiB before failing.
func TestDecodePagesRefusesCountsBeyondBody(t *testing.T) {
	for _, n := range []uint32{1 << 20, math.MaxUint32} {
		body := binary.LittleEndian.AppendUint32(nil, n)
		var err error
		if got := allocatedBy(func() { _, err = decodePages(body) }); got >= 1024 {
			t.Errorf("a body declaring %d pages allocated %d bytes", n, got)
		}
		if err == nil {
			t.Errorf("a body declaring %d pages in 4 bytes decoded", n)
		}
	}
}

// frameAll checksums every frame of log that its length field delimits, so
// that replay reads past each frame's CRC into its body; bytes after the last
// whole frame are left as they are.
func frameAll(log []byte) []byte {
	log = append([]byte(nil), log...)
	for off := 0; off+frameHeaderSize <= len(log); {
		end := off + frameHeaderSize + int(binary.LittleEndian.Uint32(log[off:]))
		if end > len(log) || end < off {
			break
		}
		binary.LittleEndian.PutUint32(log[off+4:], crc32.Checksum(log[off+frameHeaderSize:end], crcTable))
		off = end
	}
	return log
}

// pagesFrame is a kindPages frame of LSN 1 whose body is body; frameAll sets
// its CRC.
func pagesFrame(body []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(9+len(body)))
	f = append(f, 0, 0, 0, 0, kindPages)
	f = binary.LittleEndian.AppendUint64(f, 1)
	return append(f, body...)
}

// FuzzWALReplay: replaying any log — every frame its length field delimits
// checksummed (frameAll), so the frame reader and decodePages see whatever
// the fuzzer writes — neither panics nor allocates more than a fixed multiple
// of the log's size. Seeded with a real log of two commit groups and with
// 4-byte pages bodies that declare 2^20 and 2^32-1 images.
func FuzzWALReplay(f *testing.F) {
	fs := faultfs.New(1)
	w, err := Open(fs, "wal", nil)
	if err != nil {
		f.Fatal(err)
	}
	lsn := w.Append([]PageImage{{ID: 1, Data: []byte("page one")}, {ID: 2, Data: []byte("two")}}, []byte("meta"), 1, "stmt")
	lsn = w.Append([]PageImage{{ID: 1, Data: []byte("again")}}, []byte("meta 2"), 2, "")
	if err := w.WaitDurable(lsn); err != nil {
		f.Fatal(err)
	}
	file, err := fs.OpenFile("wal")
	if err != nil {
		f.Fatal(err)
	}
	real := make([]byte, w.Size())
	if _, err := file.ReadAt(real, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(pagesFrame(binary.LittleEndian.AppendUint32(nil, 1<<20)))
	f.Add(pagesFrame(binary.LittleEndian.AppendUint32(nil, math.MaxUint32)))
	f.Fuzz(func(t *testing.T, data []byte) {
		log := frameAll(data)
		fs := faultfs.New(1)
		file, err := fs.OpenFile("wal")
		if err != nil {
			t.Fatal(err)
		}
		if len(log) > 0 {
			if _, err := file.WriteAt(log, 0); err != nil {
				t.Fatal(err)
			}
		}
		var commits []*Commit
		got := allocatedBy(func() {
			w, err := Open(fs, "wal", func(c *Commit) error {
				commits = append(commits, c)
				return nil
			})
			if err == nil {
				w.Close()
			}
		})
		if limit := 32*uint64(len(log)) + 64<<10; got > limit {
			t.Fatalf("replay of a %d-byte log allocated %d bytes (%d commits), above %d", len(log), got, len(commits), limit)
		}
	})
}
