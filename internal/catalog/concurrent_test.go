package catalog

import (
	"fmt"
	"sync"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// newSeekTable builds a clustered table (id, grp, amount) with a covering
// secondary index on (grp, id), large enough to span many leaf pages.
func newSeekTable(t *testing.T, rows int) (*Catalog, *Table, *Index) {
	t.Helper()
	c := New(storage.NewPager(0))
	tbl, err := c.CreateTable("items", []Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "grp", Kind: value.KindInt},
		{Name: "amount", Kind: value.KindFloat},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]value.Value, rows)
	for i := range data {
		data[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 50)),
			value.NewFloat(float64(i % 997)),
		}
	}
	if err := tbl.BulkLoad(data); err != nil {
		t.Fatal(err)
	}
	ix, err := c.CreateIndex("items_grp", "items", []string{"grp", "id"}, []string{"amount"}, false)
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl, ix
}

// drainRanges concatenates the cursors of a list of ranges.
func drainRanges(t *testing.T, rngs []Range) []string {
	t.Helper()
	var out []string
	for i := range rngs {
		cur := rngs[i].Open()
		for {
			row, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, fmt.Sprint(row))
		}
	}
	return out
}

// TestRangeSplitsReproduceRange: for a sweep of bound shapes over the
// clustered tree and over a secondary index (entries, including the
// duplicate-key runs a grp index has), concatenating the cursors of a split
// range equals the unsplit range's cursor exactly.
func TestRangeSplitsReproduceRange(t *testing.T) {
	_, tbl, ix := newSeekTable(t, 20000)
	iv := func(n int64) []value.Value { return []value.Value{value.NewInt(n)} }
	tableRange := func(lo, hi []value.Value, loIncl, hiIncl bool) Range {
		rng, err := tbl.Range(lo, hi, loIncl, hiIncl)
		if err != nil {
			t.Fatal(err)
		}
		return rng
	}
	cases := []struct {
		name           string
		rangeOf        func(lo, hi []value.Value, loIncl, hiIncl bool) Range
		lo, hi         []value.Value
		loIncl, hiIncl bool
	}{
		{"full", tableRange, nil, nil, false, false},
		{"interior", tableRange, iv(3000), iv(12000), true, true},
		{"exclusive", tableRange, iv(3000), iv(12000), false, false},
		{"open-lo", tableRange, nil, iv(9000), false, true},
		{"open-hi", tableRange, iv(15000), nil, true, false},
		{"equality", tableRange, iv(7777), iv(7777), true, true},
		{"empty", tableRange, iv(25000), iv(30000), true, true},
		{"index range", ix.Range, iv(10), iv(30), true, true},
		{"index equality", ix.Range, iv(25), iv(25), true, true},
		{"index open-lo", ix.Range, nil, iv(5), false, true},
		{"index empty", ix.Range, iv(60), iv(70), true, true},
	}
	for _, tc := range cases {
		rng := tc.rangeOf(tc.lo, tc.hi, tc.loIncl, tc.hiIncl)
		want := drainRanges(t, []Range{rng})
		for _, target := range []int64{300, 2000, 1 << 30} {
			parts := rng.Split(target)
			got := drainRanges(t, parts)
			if len(got) != len(want) {
				t.Errorf("%s target=%d: got %d rows, want %d (over %d splits)",
					tc.name, target, len(got), len(want), len(parts))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s target=%d: row %d = %s, want %s", tc.name, target, i, got[i], want[i])
					break
				}
			}
		}
		// The row estimate gates parallelization: exact for the open range,
		// in the right ballpark for a non-empty interior range.
		est := rng.EstRows()
		switch tc.name {
		case "full":
			if est != int64(len(want)) {
				t.Errorf("open range EstRows = %d for %d actual rows", est, len(want))
			}
		case "interior":
			if est < int64(len(want))/2 || est > 2*int64(len(want))+1000 {
				t.Errorf("interior range EstRows = %d for %d actual rows", est, len(want))
			}
		}
	}
}

// TestRangeSplitCarriesPageError: a page error hit while walking the leaf
// chain at partition time is not swallowed — the split's cursor reports it on
// both ways of advancing, so a corrupt tree fails the query instead of
// silently scanning nothing.
func TestRangeSplitCarriesPageError(t *testing.T) {
	c, tbl, _ := newSeekTable(t, 20000)
	leaves, err := tbl.Clustered.tree.LeafPages()
	if err != nil {
		t.Fatal(err)
	}
	// Point a mid-chain leaf's next-leaf link at a page that does not exist.
	pg, err := c.Pager().Get(leaves[len(leaves)/2])
	if err != nil {
		t.Fatal(err)
	}
	pg.SetAux(uint64(c.Pager().NumPages() + 1000))
	rng, err := tbl.Range([]value.Value{value.NewInt(100)}, nil, true, false)
	if err != nil {
		t.Fatal(err)
	}
	parts := rng.Split(1000)
	if len(parts) != 1 {
		t.Fatalf("split of a broken chain returned %d parts, want the 1 carrying the error", len(parts))
	}
	if _, _, err := parts[0].Open().Next(); err == nil {
		t.Error("Next over a split of a broken chain reported no error")
	}
	cur := parts[0].Open()
	if n := cur.NextSpans(nil, make([][]byte, 8)); n != 0 || cur.Err() == nil {
		t.Errorf("NextSpans over a split of a broken chain filled %d spans, err %v", n, cur.Err())
	}
}

// TestDropTableKeepsTableOnPageError: a tree walk that hits a page error
// fails the drop whole — the table stays listed and nothing reaches the
// freelist — instead of dropping the table and leaking every page the walk
// could not name. DataPages, which walks the leaf chain from the leftmost
// leaf, reports a broken link the same way rather than a short count.
func TestDropTableKeepsTableOnPageError(t *testing.T) {
	c, tbl, _ := newSeekTable(t, 20000)
	if tbl.Clustered.tree.Height() < 2 {
		t.Fatalf("tree height %d, want an internal root", tbl.Clustered.tree.Height())
	}
	missing := uint64(c.Pager().NumPages() + 1000)
	// Point the leftmost leaf's right sibling at a page that does not exist.
	first, err := c.Pager().Get(tbl.Clustered.tree.FirstLeaf())
	if err != nil {
		t.Fatal(err)
	}
	link := first.Aux()
	first.SetAux(missing)
	if n, err := tbl.DataPages(); err == nil {
		t.Errorf("DataPages over a broken leaf chain = %d, want the page error", n)
	}
	first.SetAux(link)
	// Point the root's leftmost child at a page that does not exist.
	root, err := c.Pager().Get(tbl.Clustered.tree.RootPage())
	if err != nil {
		t.Fatal(err)
	}
	good := root.Aux()
	root.SetAux(missing)
	if err := c.DropTable(tbl.Name); err == nil {
		t.Fatal("DropTable over a broken tree reported no error")
	}
	if !c.HasTable(tbl.Name) {
		t.Error("the failed drop removed the table")
	}
	if free := c.Pager().FreeList(); len(free) != 0 {
		t.Errorf("the failed drop freed %d pages", len(free))
	}
	// With the pointer restored the drop goes through and frees the tree.
	root.SetAux(good)
	if err := c.DropTable(tbl.Name); err != nil {
		t.Fatal(err)
	}
	if c.HasTable(tbl.Name) || len(c.Pager().FreeList()) == 0 {
		t.Errorf("after the drop: table listed %v, %d pages free", c.HasTable(tbl.Name), len(c.Pager().FreeList()))
	}
}

// TestConcurrentCatalogReads pins the read-path thread-safety contract under
// the race detector: concurrent sessions scanning, seeking, partitioning
// morsels and reading optimizer statistics of shared tables — every shared
// structure a concurrent SELECT touches below the engine.
func TestConcurrentCatalogReads(t *testing.T) {
	c, tbl, ix := newSeekTable(t, 20000)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 15; iter++ {
				// Full-scan morsels (races to fill the btree leaf cache).
				count := 0
				full, _ := tbl.Range(nil, nil, false, false)
				for _, part := range full.Split(4096) {
					it := part.Open()
					for {
						_, ok, err := it.Next()
						if err != nil {
							errs <- err
							return
						}
						if !ok {
							break
						}
						count++
					}
				}
				if count != 20000 {
					errs <- fmt.Errorf("scan morsels yielded %d rows, want 20000", count)
					return
				}
				// Clustered range seek + morsels.
				lo := []value.Value{value.NewInt(int64(g * 1000))}
				hi := []value.Value{value.NewInt(int64(g*1000 + 2000))}
				rng, err := tbl.Range(lo, hi, true, false)
				if err != nil {
					errs <- err
					return
				}
				n := 0
				for _, part := range rng.Split(1000) {
					it := part.Open()
					for {
						_, ok, err := it.Next()
						if err != nil {
							errs <- err
							return
						}
						if !ok {
							break
						}
						n++
					}
				}
				if n != 2000 {
					errs <- fmt.Errorf("seek morsels yielded %d rows, want 2000", n)
					return
				}
				// Index seek, catalog lookups, stats reads.
				grp := []value.Value{value.NewInt(int64(g % 50))}
				eq := ix.Range(grp, grp, true, true)
				it := eq.Open()
				for {
					_, ok, err := it.Next()
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						break
					}
				}
				if _, err := c.Table("items"); err != nil {
					errs <- err
					return
				}
				_ = tbl.Stats.DistinctCount(1)
				_, _ = tbl.Stats.MinMax(2)
				_ = tbl.Stats.EstimatedDataPages()
				_ = tbl.RowCount()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
