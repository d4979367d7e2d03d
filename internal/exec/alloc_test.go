package exec

import (
	"fmt"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// TestProjectedScanFillZeroAllocsPerRow pins the steady-state allocation rate
// of the projected batch fill: once a serial scan's arena has grown to full
// batch size, re-executing the scan allocates only per-batch wrappers (the
// Batch, its vectors), never per-row storage — the arena is reused across
// executions, as a plan-cache lease would reuse it. A regression that
// re-allocates column buffers per batch or per row busts the bound
// immediately (1000 rows would add ≥1000 allocations).
func TestProjectedScanFillZeroAllocsPerRow(t *testing.T) {
	_, lineitem, _ := buildTestDB(t)
	// Numeric projection: l_orderkey (int), l_extendedprice (float). String
	// columns inherently allocate per value and are excluded from the pin.
	scan := NewSeqScan(lineitem, []int{0, 3})
	drainOnce := func() {
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			b, ok, err := scan.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows += b.NumRows()
		}
		if rows != 1000 {
			t.Fatalf("scan produced %d rows, want 1000", rows)
		}
		if err := scan.Close(); err != nil {
			t.Fatal(err)
		}
	}
	drainOnce() // pay the arena growth ramp once
	perDrain := testing.AllocsPerRun(10, drainOnce)
	perRow := perDrain / 1000
	if perRow >= 0.05 {
		t.Fatalf("warm projected scan allocates %.3f/row (%.0f per 1000-row drain), want ~0",
			perRow, perDrain)
	}
}

// TestProjectedStringScanFillZeroAllocsPerRow pins the steady-state
// allocation rate of string column decode. Two string columns exercise both
// fill paths: a low-distinct-count column that stays dictionary-encoded
// (alloc-free probe lookups against the interned dictionary) and a
// high-cardinality column that abandons the dictionary and decodes through
// the batch arena (one sealed-string allocation per batch, ~0.001/row).
// A regression to per-value string allocation adds ≥1000 allocations per
// drain and busts the bound immediately.
func TestProjectedStringScanFillZeroAllocsPerRow(t *testing.T) {
	c := catalog.New(storage.NewPager(0))
	tbl, err := c.CreateTable("strings", []catalog.Column{
		{Name: "k", Kind: value.KindInt},
		{Name: "s_low", Kind: value.KindString},
		{Name: "s_high", Kind: value.KindString},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	lows := []string{"AIR", "RAIL", "SHIP", "TRUCK"}
	var rows [][]value.Value
	for i := 0; i < 1000; i++ {
		rows = append(rows, []value.Value{
			value.NewInt(int64(i)),
			value.NewString(lows[i%len(lows)]),
			value.NewString(fmt.Sprintf("note-%06d-%06d", i, i*7)),
		})
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	scan := NewSeqScan(tbl, []int{1, 2})
	drainOnce := func() {
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			b, ok, err := scan.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n += b.NumRows()
		}
		if n != 1000 {
			t.Fatalf("scan produced %d rows, want 1000", n)
		}
		if err := scan.Close(); err != nil {
			t.Fatal(err)
		}
	}
	drainOnce() // pay dictionary interning and arena growth once
	perDrain := testing.AllocsPerRun(10, drainOnce)
	perRow := perDrain / 1000
	if perRow >= 0.05 {
		t.Fatalf("warm projected string scan allocates %.3f/row (%.0f per 1000-row drain), want ~0",
			perRow, perDrain)
	}
}

// TestUncoveredIndexSeekAllocsPerRow pins the per-row allocation rate of the
// one access path that cannot avoid per-row work: an uncovered secondary-index
// seek, which resolves every entry to its base row through the clustered key.
// Decoding the entry and the base row, encoding the lookup key and opening the
// lookup cursor cost a fixed handful of allocations per row; what must not
// come back is per-row rediscovery of where the clustered-key columns sit in
// the entry (a map plus the entry-column list, once rebuilt for every row),
// which the seek resolves once at construction.
func TestUncoveredIndexSeekAllocsPerRow(t *testing.T) {
	c, _, _ := buildTestDB(t)
	idx, err := c.CreateIndex("li_supp", "lineitem", []string{"l_suppkey"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// l_extendedprice is not in the index: every entry needs its base row.
	seek, err := NewIndexSeek(idx, nil, nil, false, false, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if seek.Covered() {
		t.Fatal("fixture seek is covered; the base-row lookup is not exercised")
	}
	drainOnce := func() {
		if err := seek.Open(); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			_, ok, err := seek.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows++
		}
		if rows != 1000 {
			t.Fatalf("seek produced %d rows, want 1000", rows)
		}
		if err := seek.Close(); err != nil {
			t.Fatal(err)
		}
	}
	drainOnce()
	// 11/row as measured (two tuple decodes and a string, the projected row,
	// the encoded lookup bounds, the cursor and its tree iterator); the
	// per-row position map and entry-column list cost 5 more.
	perRow := testing.AllocsPerRun(10, drainOnce) / 1000
	if perRow >= 13 {
		t.Fatalf("uncovered index seek allocates %.2f/row, want about 11", perRow)
	}
}
