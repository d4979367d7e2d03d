package bench

import (
	"encoding/binary"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// bytesPerRow is the mean on-page footprint of a tree's leaf records as the
// B+-tree's packing rule counts it: marker byte, key-length varint, key,
// payload, slot, and the paper's per-tuple overhead.
func bytesPerRow(t *testing.T, ix *catalog.Index) float64 {
	t.Helper()
	var total, n int
	it := ix.Tree().Scan()
	for it.Next() {
		total += 1 + len(binary.AppendUvarint(nil, uint64(len(it.Key())))) + len(it.Key()) + len(it.Value()) +
			4 + storage.DefaultTupleOverhead
		n++
	}
	if err := it.Err(); err != nil || n == 0 {
		t.Fatalf("scan of %s: %d records, err %v", ix.Name, n, err)
	}
	return float64(total) / float64(n)
}

// TestLeafDensityPins holds the record layout to the sizes that make Row(Col)
// the paper's Row(Col): each column stored once, each key column as narrow as
// its kind allows. A dense (f, v) c-table row is f's 3- or 4-byte key, a
// one-field payload and framing (the paper's is 17 B: 9 B of header and two
// 4-byte ints; the 7 B of marker, key length and slot are the next layer
// down); its v index entry is v's and f's keys and no payload — 9 bytes of
// them v's where v is a float; a lineitem row holds its two key columns in 4
// and 2 bytes. (27.7, 33.0 and 97.1 bytes under the 9-byte cross-kind key
// word; 40.6, 40.6 and 112.0 before every column was stored once.)
func TestLeafDensityPins(t *testing.T) {
	h := harness(t)
	table := func(name string) *catalog.Table {
		tb, err := h.Engine.Catalog().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	dense := 0
	for _, d := range h.Designs {
		for _, ct := range d.Columns {
			if !ct.Dense {
				continue
			}
			tb := table(ct.Table)
			// The row pin is for an integer or date v (a varint of a byte or
			// two); a price stored as a float varint is up to ten, and takes 9
			// bytes as an index key.
			indexPin := 28.5
			if k := tb.Columns[1].Kind; k == value.KindInt || k == value.KindDate {
				dense++
				indexPin = 22
				if got := bytesPerRow(t, tb.Clustered); got > 23 {
					t.Errorf("dense c-table %s: %.1f B/row on the page, want <= 23", ct.Table, got)
				}
			}
			if len(tb.Secondary) != 1 {
				t.Fatalf("c-table %s has %d secondary indexes, want its v index", ct.Table, len(tb.Secondary))
			}
			if got := bytesPerRow(t, tb.Secondary[0]); got > indexPin {
				t.Errorf("v index of %s: %.1f B/row on the page, want <= %v", ct.Table, got, indexPin)
			}
		}
	}
	if dense == 0 {
		t.Fatal("no dense integer c-table in the harness designs; the pins are vacuous")
	}
	if got := bytesPerRow(t, table("lineitem").Clustered); got > 86 {
		t.Errorf("lineitem: %.1f B/row on the page, want <= 86", got)
	}
}
