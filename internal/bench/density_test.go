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
// the paper's Row(Col): each column stored once. A dense (f, v) c-table row
// is f's 9-byte key word, a one-field payload and framing; its v index entry
// is two key words and no payload; a lineitem row no longer repeats its two
// key columns or carries a uniquifier. (40.6, 40.6 and 112.0 bytes before.)
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
			// two); a price stored as a float varint is up to ten.
			if k := tb.Columns[1].Kind; k == value.KindInt || k == value.KindDate {
				dense++
				if got := bytesPerRow(t, tb.Clustered); got > 29 {
					t.Errorf("dense c-table %s: %.1f B/row on the page, want <= 29", ct.Table, got)
				}
			}
			if len(tb.Secondary) != 1 {
				t.Fatalf("c-table %s has %d secondary indexes, want its v index", ct.Table, len(tb.Secondary))
			}
			if got := bytesPerRow(t, tb.Secondary[0]); got > 35 {
				t.Errorf("v index of %s: %.1f B/row on the page, want <= 35", ct.Table, got)
			}
		}
	}
	if dense == 0 {
		t.Fatal("no dense integer c-table in the harness designs; the pins are vacuous")
	}
	if got := bytesPerRow(t, table("lineitem").Clustered); got > 99 {
		t.Errorf("lineitem: %.1f B/row on the page, want <= 99", got)
	}
}
