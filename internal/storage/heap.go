package storage

import "fmt"

// HeapFile stores records in insertion order across a chain of slotted
// pages. It is the storage structure for tables without a clustered index;
// what a record holds is its owner's business (catalog encodes each row as
// one value.AppendRecord record).
type HeapFile struct {
	pager    *Pager
	pageIDs  []PageID
	rowCount int64
}

// NewHeapFile creates an empty heap file backed by the pager.
func NewHeapFile(pager *Pager) *HeapFile {
	return &HeapFile{pager: pager}
}

// OpenHeapFile reattaches a heap file to its pages (recovery path: the page
// list and row count come from the persisted catalog meta).
func OpenHeapFile(pager *Pager, pageIDs []PageID, rowCount int64) *HeapFile {
	return &HeapFile{pager: pager, pageIDs: pageIDs, rowCount: rowCount}
}

// PageIDs returns the heap's page chain (for meta persistence and freeing).
func (h *HeapFile) PageIDs() []PageID { return h.pageIDs }

// MaxRecord is the size of the largest record a heap page holds.
const MaxRecord = PageSize - pageHeaderSize - slotSize - TupleOverhead

// Insert appends a record and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	if len(rec) > MaxRecord {
		return RID{}, fmt.Errorf("storage: record of %d bytes does not fit in a page", len(rec))
	}
	if len(h.pageIDs) > 0 {
		last, err := h.pager.Get(h.pageIDs[len(h.pageIDs)-1])
		if err != nil {
			return RID{}, err
		}
		h.pager.BeforeWrite(last)
		if slot, ok := last.InsertRecord(rec); ok {
			h.rowCount++
			return RID{Page: last.ID(), Slot: uint16(slot)}, nil
		}
	}
	pg, err := h.pager.Allocate()
	if err != nil {
		return RID{}, err
	}
	h.pageIDs = append(h.pageIDs, pg.ID())
	slot, ok := pg.InsertRecord(rec)
	if !ok {
		return RID{}, fmt.Errorf("storage: record of %d bytes does not fit in a fresh page", len(rec))
	}
	h.rowCount++
	return RID{Page: pg.ID(), Slot: uint16(slot)}, nil
}

// Get returns the record stored at rid. It aliases page memory, like the
// records NextRecord returns.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	pg, err := h.pager.Get(rid.Page)
	if err != nil {
		return nil, err
	}
	rec := pg.Record(int(rid.Slot))
	if rec == nil {
		return nil, fmt.Errorf("storage: no record at %v", rid)
	}
	return rec, nil
}

// Delete removes the row at rid (the slot is tombstoned).
func (h *HeapFile) Delete(rid RID) error {
	pg, err := h.pager.Get(rid.Page)
	if err != nil {
		return err
	}
	h.pager.BeforeWrite(pg)
	if err := pg.DeleteRecord(int(rid.Slot)); err != nil {
		return err
	}
	h.rowCount--
	return nil
}

// RowCount returns the number of live rows.
func (h *HeapFile) RowCount() int64 { return h.rowCount }

// NumPages returns the number of pages the heap occupies.
func (h *HeapFile) NumPages() int { return len(h.pageIDs) }

// Scan returns an iterator over all live rows in storage order.
func (h *HeapFile) Scan() *HeapIterator {
	return h.ScanPages(0, len(h.pageIDs))
}

// ScanPages returns an iterator over the live rows of count consecutive heap
// pages starting at page index start. Concatenating the iterators of a
// partition of the page list reproduces Scan exactly; parallel scans use it
// to split a heap into morsels.
func (h *HeapFile) ScanPages(start, count int) *HeapIterator {
	end := start + count
	if end > len(h.pageIDs) {
		end = len(h.pageIDs)
	}
	return &HeapIterator{heap: h, pageIdx: start, endIdx: end}
}

// HeapIterator walks a heap file page by page, slot by slot.
type HeapIterator struct {
	heap    *HeapFile
	pageIdx int
	endIdx  int // exclusive page-index bound
	slot    int
	page    *Page
	err     error
}

// Err returns the first page-access error the iterator hit. NextRecord
// reports exhaustion on error, so callers that see ok == false must check
// Err to distinguish end-of-heap from a failed page read.
func (it *HeapIterator) Err() error { return it.err }

// NextRecord returns the next live record and its RID; ok is false at the
// end of the heap. The record aliases page memory, which stays alive while
// it is referenced (see Pager), so callers may hold it (and sub-spans of it)
// across calls.
func (it *HeapIterator) NextRecord() (rec []byte, rid RID, ok bool) {
	if it.err != nil {
		return nil, RID{}, false
	}
	for {
		if it.page == nil {
			if it.pageIdx >= it.endIdx {
				return nil, RID{}, false
			}
			pg, err := it.heap.pager.Get(it.heap.pageIDs[it.pageIdx])
			if err != nil {
				it.err = err
				return nil, RID{}, false
			}
			it.page = pg
			it.slot = 0
		}
		for it.slot < it.page.NumSlots() {
			rec := it.page.Record(it.slot)
			slot := it.slot
			it.slot++
			if rec == nil {
				continue // deleted
			}
			return rec, RID{Page: it.page.ID(), Slot: uint16(slot)}, true
		}
		it.page = nil
		it.pageIdx++
	}
}
