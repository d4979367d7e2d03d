package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk layout of the data file:
//
//	header  (64 bytes):  magic[8] version[4] pageSize[4] pageCount[8] crc[4] pad
//	slot i  (PageSize+8 bytes, PageID = i+1):  crc[4] reserved[4] data[PageSize]
//
// Every page slot carries a CRC32-C of its data so recovery can detect torn
// page flushes. The header's pageCount is informational: recovery derives the
// real count from the file size and the WAL, so a torn header write cannot
// lose data.
const (
	dataFileMagic   = "OLDELEPH"
	dataFileVersion = 1
	dataHeaderSize  = 64
	pageSlotSize    = PageSize + 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DataFile is a page file: a header followed by fixed-size page slots, each
// protected by a checksum. It is where the pager's buffer pool reads the
// pages it does not hold — a miss is one ReadPage — and where it writes them
// back. A durable pager's data file changes only at checkpoints (FlushDirty);
// a memory-mode pager with a bounded pool spills evicted pages to a private
// one. A DataFile is not safe for concurrent use: the pager serializes it.
type DataFile struct {
	f         File
	pageCount int64  // pages currently represented in the file
	buf       []byte // one slot: the scratch of every read and write
}

// OpenDataFile opens (or creates) the data file at name and verifies every
// page slot's checksum, one slot at a time; it keeps no page. The ids of the
// slots that fail are returned in corrupt: the caller (recovery) must ensure
// the WAL overwrites them. A file shorter than the header — including a
// brand-new empty file — starts empty.
func OpenDataFile(fsys FS, name string) (df *DataFile, corrupt []PageID, err error) {
	f, err := fsys.OpenFile(name)
	if err != nil {
		return nil, nil, err
	}
	df, corrupt, err = openDataFile(f, name)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return df, corrupt, nil
}

func openDataFile(f File, name string) (*DataFile, []PageID, error) {
	size, err := f.Size()
	if err != nil {
		return nil, nil, err
	}
	df := &DataFile{f: f, buf: make([]byte, pageSlotSize)}
	if size < dataHeaderSize {
		// New or never-synced file: write a fresh header. Any commits that
		// predate a first checkpoint are still in the WAL in full.
		return df, nil, df.writeHeader(0)
	}
	var hdr [dataHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, nil, err
	}
	if string(hdr[:8]) != dataFileMagic {
		return nil, nil, fmt.Errorf("storage: %s is not a data file (bad magic)", name)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != dataFileVersion {
		return nil, nil, fmt.Errorf("storage: data file version %d not supported", v)
	}
	if ps := binary.LittleEndian.Uint32(hdr[12:16]); ps != PageSize {
		return nil, nil, fmt.Errorf("storage: data file page size %d, built for %d", ps, PageSize)
	}
	// The header's pageCount and CRC are advisory; a torn header rewrite must
	// not lose pages, so the slot count comes from the file size.
	df.pageCount = (size - dataHeaderSize) / pageSlotSize
	var corrupt []PageID
	for id := PageID(1); int64(id) <= df.pageCount; id++ {
		if err := df.readSlot(id); err == errChecksum {
			corrupt = append(corrupt, id)
		} else if err != nil {
			return nil, nil, err
		}
	}
	return df, corrupt, nil
}

// errChecksum is readSlot's report of a slot whose bytes fail their CRC.
var errChecksum = errors.New("checksum mismatch")

// readSlot reads page id's slot into df.buf and verifies its checksum.
func (df *DataFile) readSlot(id PageID) error {
	if _, err := df.f.ReadAt(df.buf, dataHeaderSize+(int64(id)-1)*pageSlotSize); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(df.buf[0:4]) != crc32.Checksum(df.buf[8:], castagnoli) {
		return errChecksum
	}
	return nil
}

// ReadPage reads page id from its slot into a fresh page. A slot that fails
// its checksum is an error, never a page.
func (df *DataFile) ReadPage(id PageID) (*Page, error) {
	if err := df.readSlot(id); err != nil {
		return nil, fmt.Errorf("storage: read of page %d: %w", id, err)
	}
	// A clone, not make and copy: the new frame is written once, not zeroed
	// first.
	return &Page{id: id, data: bytes.Clone(df.buf[8:])}, nil
}

func (df *DataFile) writeHeader(pageCount int64) error {
	var hdr [dataHeaderSize]byte
	copy(hdr[:8], dataFileMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], dataFileVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], PageSize)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(pageCount))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(hdr[:24], castagnoli))
	_, err := df.f.WriteAt(hdr[:], 0)
	return err
}

// WritePage writes one page's slot (checksum + data) without syncing.
func (df *DataFile) WritePage(pg *Page) error {
	binary.LittleEndian.PutUint32(df.buf[0:4], crc32.Checksum(pg.data, castagnoli))
	clear(df.buf[4:8])
	copy(df.buf[8:], pg.data)
	off := dataHeaderSize + (int64(pg.id)-1)*pageSlotSize
	if _, err := df.f.WriteAt(df.buf, off); err != nil {
		return err
	}
	if int64(pg.id) > df.pageCount {
		df.pageCount = int64(pg.id)
	}
	return nil
}

// Sync makes previous writes durable, updating the header first.
func (df *DataFile) Sync() error {
	if err := df.writeHeader(df.pageCount); err != nil {
		return err
	}
	return df.f.Sync()
}

// Close closes the underlying file (without syncing).
func (df *DataFile) Close() error { return df.f.Close() }

// WriteFileAtomic durably replaces name with data via the tmp+rename
// protocol, framing data with a magic number, length and checksum.
func WriteFileAtomic(fsys FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fsys.OpenFile(tmp)
	if err != nil {
		return err
	}
	buf := make([]byte, 16+len(data))
	copy(buf[:8], dataFileMagic)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.Checksum(data, castagnoli))
	copy(buf[16:], data)
	if err := f.Truncate(0); err != nil {
		f.Close()
		return err
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, name)
}

// ReadFileAtomic reads a file written by WriteFileAtomic. A missing, empty or
// corrupt file returns (nil, false, nil): the callers treat that as "no meta
// yet" because the atomic rename means any complete file is the newest one.
func ReadFileAtomic(fsys FS, name string) ([]byte, bool, error) {
	f, err := fsys.OpenFile(name)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil || size < 16 {
		return nil, false, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, false, err
	}
	if string(buf[:8]) != dataFileMagic {
		return nil, false, nil
	}
	n := binary.LittleEndian.Uint32(buf[8:12])
	if int64(16+n) > size {
		return nil, false, nil
	}
	data := buf[16 : 16+n]
	if crc32.Checksum(data, castagnoli) != binary.LittleEndian.Uint32(buf[12:16]) {
		return nil, false, nil
	}
	return data, true, nil
}
