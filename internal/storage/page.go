// Package storage implements the on-disk layout of the row store: fixed
// size pages in a checksummed page file, and a pager that is a bounded buffer
// pool over that file and accounts for sequential and random page I/O.
//
// All data passes through pages of PageSize bytes. At most the pool's
// capacity of them is in memory (plus, for a durable database, the pages
// written since the last checkpoint); the rest are in the data file, or in a
// private spill file for an in-memory database whose pool is bounded. Every
// page access is charged to the pager's statistics, and a miss is a read of
// the file. The statistics are what the benchmark harness uses to model
// disk time, so the layout deliberately mirrors a classic row store:
// records carry a per-tuple overhead of 9 bytes (TupleOverhead, the number
// quoted in the paper). Every table and index is a B+-tree, and package btree
// owns a page's bytes whole; the one word it shares with the pager's page API
// is Aux, its sibling or child link.
package storage

import "encoding/binary"

// PageSize is the size of every page in bytes (8 KB, the SQL Server page size).
const PageSize = 8192

// TupleOverhead is the per-record overhead charged by tree leaves, matching
// the 9 bytes per tuple mentioned in Section 3 of the paper ("Storage
// layer").
const TupleOverhead = 9

// PageID identifies a page within a Pager. Page 0 is never allocated so the
// zero value can mean "no page".
type PageID uint64

// InvalidPageID is the zero PageID, used to mean "no page".
const InvalidPageID PageID = 0

// auxOffset is where a page keeps its auxiliary header word: bytes 6 to 13,
// inside the header of the owner's layout.
const auxOffset = 6

// Page is a single fixed-size page. A new page is all zeros.
type Page struct {
	id   PageID
	data []byte
}

// ID returns the page's identifier.
func (p *Page) ID() PageID { return p.id }

// Data exposes the raw page bytes; callers must not resize it.
func (p *Page) Data() []byte { return p.data }

// Aux returns the auxiliary header word (used by owners for next-page links).
func (p *Page) Aux() uint64 { return binary.LittleEndian.Uint64(p.data[auxOffset:]) }

// SetAux stores the auxiliary header word.
func (p *Page) SetAux(v uint64) { binary.LittleEndian.PutUint64(p.data[auxOffset:], v) }
