// Package storage implements the on-disk layout of the row store: fixed
// size pages in a checksummed page file, a pager that is a bounded buffer
// pool over that file and accounts for sequential and random page I/O, and
// heap files built from slotted pages.
//
// All data passes through pages of PageSize bytes. At most the pool's
// capacity of them is in memory (plus, for a durable database, the pages
// written since the last checkpoint); the rest are in the data file, or in a
// private spill file for an in-memory database whose pool is bounded. Every
// page access is charged to the pager's statistics, and a miss is a read of
// the file. The statistics are what the benchmark harness uses to model
// disk time, so the layout deliberately mirrors a classic row store:
// records carry a per-tuple overhead of 9 bytes (TupleOverhead, the number
// quoted in the paper). A heap page holds a slot directory (the
// layout below). A B+-tree page is not slotted: package btree owns its
// bytes whole and shares only the Aux header word, its sibling or child
// link.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of every page in bytes (8 KB, the SQL Server page size).
const PageSize = 8192

// TupleOverhead is the per-record overhead charged by heap pages and index
// leaves, matching the 9 bytes per tuple mentioned in Section 3 of the paper
// ("Storage layer").
const TupleOverhead = 9

// PageID identifies a page within a Pager. Page 0 is never allocated so the
// zero value can mean "no page".
type PageID uint64

// InvalidPageID is the zero PageID, used to mean "no page".
const InvalidPageID PageID = 0

// Slotted (heap) page layout:
//
//	offset 0:  uint16 slot count
//	offset 2:  uint16 free-space start (grows up, past the slot directory)
//	offset 4:  uint16 free-space end   (grows down, records are placed here)
//	offset 6:  uint64 auxiliary header word (owners use it for next-page links
//	           or node metadata)
//	offset 14: slot directory, 4 bytes per slot (uint16 offset, uint16 length)
//	...
//	records, growing from the end of the page towards the slot directory.
const (
	pageHeaderSize = 14
	slotSize       = 4
	deletedOffset  = 0xFFFF
)

// Page is a single fixed-size page. Accessors maintain the slotted layout.
type Page struct {
	id   PageID
	data []byte
}

func newPage(id PageID) *Page {
	p := &Page{id: id, data: make([]byte, PageSize)}
	p.setFreeStart(pageHeaderSize)
	p.setFreeEnd(PageSize)
	return p
}

// ID returns the page's identifier.
func (p *Page) ID() PageID { return p.id }

// Data exposes the raw page bytes; callers must not resize it.
func (p *Page) Data() []byte { return p.data }

func (p *Page) numSlotsRaw() int  { return int(binary.LittleEndian.Uint16(p.data[0:2])) }
func (p *Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.data[0:2], uint16(n)) }
func (p *Page) freeStart() int    { return int(binary.LittleEndian.Uint16(p.data[2:4])) }
func (p *Page) setFreeStart(v int) {
	binary.LittleEndian.PutUint16(p.data[2:4], uint16(v))
}
func (p *Page) freeEnd() int { return int(binary.LittleEndian.Uint16(p.data[4:6])) }
func (p *Page) setFreeEnd(v int) {
	if v == PageSize {
		// PageSize does not fit in a uint16; store 0 and treat it specially.
		binary.LittleEndian.PutUint16(p.data[4:6], 0)
		return
	}
	binary.LittleEndian.PutUint16(p.data[4:6], uint16(v))
}

func (p *Page) freeEndVal() int {
	v := p.freeEnd()
	if v == 0 {
		return PageSize
	}
	return v
}

// Aux returns the auxiliary header word (used by owners for next-page links).
func (p *Page) Aux() uint64 { return binary.LittleEndian.Uint64(p.data[6:14]) }

// SetAux stores the auxiliary header word.
func (p *Page) SetAux(v uint64) { binary.LittleEndian.PutUint64(p.data[6:14], v) }

// NumSlots returns the number of slots in the directory, including deleted ones.
func (p *Page) NumSlots() int { return p.numSlotsRaw() }

// FreeSpace returns the number of payload bytes that can still be inserted
// as a single new record (accounting for its slot directory entry).
func (p *Page) FreeSpace() int {
	free := p.freeEndVal() - p.freeStart() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// InsertRecord appends a record to the page, reserving TupleOverhead extra
// bytes to emulate the row header of a real row store. It returns the slot
// number, or ok=false if the page does not have room.
func (p *Page) InsertRecord(rec []byte) (slot int, ok bool) {
	need := len(rec) + TupleOverhead
	if need > p.FreeSpace() {
		return 0, false
	}
	n := p.numSlotsRaw()
	if p.freeStart() == pageHeaderSize {
		p.setFreeStart(pageHeaderSize)
	}
	end := p.freeEndVal() - need
	copy(p.data[end:], rec)
	slotOff := pageHeaderSize + n*slotSize
	binary.LittleEndian.PutUint16(p.data[slotOff:], uint16(end))
	binary.LittleEndian.PutUint16(p.data[slotOff+2:], uint16(len(rec)))
	p.setNumSlots(n + 1)
	p.setFreeStart(slotOff + slotSize)
	p.setFreeEnd(end)
	return n, true
}

// Record returns the bytes of the record in the given slot, or nil if the
// slot is deleted or out of range. The returned slice aliases page memory.
func (p *Page) Record(slot int) []byte {
	if slot < 0 || slot >= p.numSlotsRaw() {
		return nil
	}
	slotOff := pageHeaderSize + slot*slotSize
	off := int(binary.LittleEndian.Uint16(p.data[slotOff:]))
	length := int(binary.LittleEndian.Uint16(p.data[slotOff+2:]))
	if off == deletedOffset {
		return nil
	}
	return p.data[off : off+length]
}

// DeleteRecord marks the slot as deleted. Space is not reclaimed (read-mostly
// workloads never need it); the slot remains so RIDs of other records stay valid.
func (p *Page) DeleteRecord(slot int) error {
	if slot < 0 || slot >= p.numSlotsRaw() {
		return fmt.Errorf("storage: delete of invalid slot %d on page %d", slot, p.id)
	}
	slotOff := pageHeaderSize + slot*slotSize
	binary.LittleEndian.PutUint16(p.data[slotOff:], deletedOffset)
	return nil
}

// RID identifies a record: the page it lives on and its slot within the page.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d:%d)", r.Page, r.Slot) }
