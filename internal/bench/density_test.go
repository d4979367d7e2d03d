package bench

import (
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/value"
)

// bytesPerRow is the mean on-page footprint of a tree's leaf records by the
// rule the B+-tree packs leaves with (btree's nodeSize, through
// LeafFootprint): key, payload, 2-byte slot and the paper's per-tuple
// overhead, plus a key-length varint only in leaves whose key and payload
// widths both vary.
func bytesPerRow(t *testing.T, ix *catalog.Index) float64 {
	t.Helper()
	total, err := ix.Tree().LeafFootprint()
	n := ix.Tree().Count()
	if err != nil || n == 0 {
		t.Fatalf("leaves of %s: %d records, err %v", ix.Name, n, err)
	}
	perRow := float64(total) / float64(n)
	t.Logf("%s: %.2f B/row", ix.Name, perRow)
	return perRow
}

// TestLeafDensityPins holds the record layout to the sizes that make Row(Col)
// the paper's Row(Col): each column stored once, each key column as narrow as
// its kind allows, and the framing said once per page and once per schema. A
// dense (f, v) c-table row is f's 3- or 4-byte key, a one-field payload (a
// bitmap byte and v's varint) and the paper's 9-byte row header with a 2-byte
// slot — its 17 B: 9 B of header and two 4-byte ints; its v index entry is
// v's and f's keys and no payload — 9 bytes of them v's where v is a float;
// a lineitem row holds its two key columns in 4 and 2 bytes and twelve bare
// payload fields behind a 2-byte bitmap. (22.1, 20.4 and 84.5 bytes under
// record layout v3's per-record marker, key length, 4-byte slot and kind
// bytes; 27.7, 33.0 and 97.1 under the 9-byte cross-kind key word; 40.6, 40.6
// and 112.0 before every column was stored once.)
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
			indexPin := 24.0
			if k := tb.Columns[1].Kind; k == value.KindInt || k == value.KindDate {
				dense++
				indexPin = 17.5
				if got := bytesPerRow(t, tb.Clustered); got > 18.5 {
					t.Errorf("dense c-table %s: %.1f B/row on the page, want <= 18.5", ct.Table, got)
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
	if got := bytesPerRow(t, table("lineitem").Clustered); got > 71 {
		t.Errorf("lineitem: %.1f B/row on the page, want <= 71", got)
	}
}
