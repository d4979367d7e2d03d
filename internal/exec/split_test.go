package exec

import (
	"fmt"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// splitFixture is a clustered table, a heap with the same rows, and on each a
// secondary index that covers (key, included) but not the wide columns — so
// all five access-path shapes can be split.
func splitFixture(t *testing.T, rows int) (c *catalog.Catalog, clustered, heap *catalog.Table) {
	t.Helper()
	c = catalog.New(storage.NewPager(0))
	cols := []catalog.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "grp", Kind: value.KindInt},
		{Name: "amount", Kind: value.KindFloat},
		{Name: "note", Kind: value.KindString},
	}
	var err error
	if clustered, err = c.CreateTable("items", cols, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if heap, err = c.CreateTable("items_heap", cols, nil); err != nil {
		t.Fatal(err)
	}
	data := make([][]value.Value, rows)
	for i := range data {
		data[i] = []value.Value{
			value.NewInt(int64(i)), value.NewInt(int64(i % 40)),
			value.NewFloat(float64(i % 997)), value.NewString("n" + value.NewInt(int64(i%13)).String()),
		}
	}
	for _, tbl := range []*catalog.Table{clustered, heap} {
		if err := tbl.BulkLoad(data); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateIndex(tbl.Name+"_grp", tbl.Name, []string{"grp"}, []string{"amount"}, false); err != nil {
			t.Fatal(err)
		}
	}
	return c, clustered, heap
}

// TestParallelSplitsReproduceSerialScan is the contract the morsel-parallel
// rewrite rests on, for every access-path shape: concatenating the output of
// an operator's splits, in slice order, equals the unsplit operator's output
// row for row — on both pull protocols, at one leaf (or page) per split, at a
// few, and not splitting at all when the target exceeds the range; splits
// with retain and splits without, whose fillers recycle.
func TestParallelSplitsReproduceSerialScan(t *testing.T) {
	const rows = 6000
	_, clustered, heap := splitFixture(t, rows)
	iv := func(n int64) []value.Value { return []value.Value{value.NewInt(n)} }
	seek := func(tbl *catalog.Table, lo, hi []value.Value, cols []int) Morseler {
		s, err := NewClusteredSeek(tbl, lo, hi, true, false, cols)
		if err != nil {
			t.Fatal(err)
		}
		s.EncodeCols = []int{0}
		return s
	}
	indexSeek := func(tbl *catalog.Table, cols []int, covered bool) Morseler {
		s, err := NewIndexSeek(tbl.Secondary[0], iv(5), iv(30), true, true, cols)
		if err != nil {
			t.Fatal(err)
		}
		if s.Covered() != covered {
			t.Fatalf("fixture index seek on %s: Covered() = %v, want %v", tbl.Name, s.Covered(), covered)
		}
		return s
	}
	cases := []struct {
		name string
		op   Morseler
	}{
		{"heap scan", NewSeqScan(heap, []int{3, 0})},
		{"clustered full scan", NewSeqScan(clustered, nil)},
		{"clustered key-only scan", NewSeqScan(clustered, []int{0})},
		{"bounded clustered seek", seek(clustered, iv(1500), iv(4800), []int{0, 2})},
		{"covered index seek", indexSeek(clustered, []int{1, 2, 0}, true)},
		{"uncovered index seek", indexSeek(clustered, []int{1, 3}, false)},
		{"uncovered index seek over a heap", indexSeek(heap, []int{1, 3}, false)},
	}
	for _, tc := range cases {
		serial := tc.op.(Operator)
		want := rowsKey(drain(t, serial))
		if batch, err := DrainBatches(nil, tc.op); err != nil || rowsKey(batch) != want {
			t.Fatalf("%s: unsplit batch protocol differs from row protocol (err %v)", tc.name, err)
		}
		if want == "" {
			t.Fatalf("%s: fixture produced no rows", tc.name)
		}
		for i, target := range []int{1, 700, rows + 1} {
			parts, ok := tc.op.Morsels(target, i%2 == 0) // both batch contracts
			if target > rows {
				if ok {
					t.Errorf("%s: split into %d parts at a target above the row count", tc.name, len(parts))
				}
				continue
			}
			if !ok || len(parts) < 2 {
				t.Fatalf("%s target=%d: did not split (%d parts)", tc.name, target, len(parts))
			}
			var viaRows, viaBatches []Row
			for _, part := range parts {
				viaRows = append(viaRows, drain(t, part.(Operator))...)
				b, err := DrainBatches(nil, part)
				if err != nil {
					t.Fatal(err)
				}
				viaBatches = append(viaBatches, b...)
			}
			if rowsKey(viaRows) != want {
				t.Errorf("%s target=%d: %d splits' row-protocol output differs from the unsplit scan", tc.name, target, len(parts))
			}
			if rowsKey(viaBatches) != want {
				t.Errorf("%s target=%d: %d splits' batch-protocol output differs from the unsplit scan", tc.name, target, len(parts))
			}
		}
	}
}

// TestParallelSplitPageErrorSurfaces: when the walk over the internal nodes
// that sizes and splits a range hits a page error, the operator refuses to
// split and the error still fails the query on either protocol — it is never
// swallowed into an empty scan.
func TestParallelSplitPageErrorSurfaces(t *testing.T) {
	c := catalog.New(storage.NewPager(0))
	tbl, err := c.CreateTable("items", []catalog.Column{
		{Name: "k", Kind: value.KindString},
		{Name: "id", Kind: value.KindInt},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	// 300-byte keys make three levels of 3,000 rows, so the root's leftmost
	// child is an internal page.
	key := func(i int) value.Value { return value.NewString(fmt.Sprintf("%0300d", i)) }
	data := make([][]value.Value, 3000)
	for i := range data {
		data[i] = []value.Value{key(i), value.NewInt(int64(i))}
	}
	if err := tbl.BulkLoad(data); err != nil {
		t.Fatal(err)
	}
	tree := tbl.Clustered.Tree()
	if tree.Height() < 3 {
		t.Fatalf("tree height %d, want an internal level below the root", tree.Height())
	}
	// Point the root's leftmost child at a page that does not exist.
	root, err := c.Pager().Get(tree.RootPage())
	if err != nil {
		t.Fatal(err)
	}
	root.SetAux(uint64(c.Pager().NumPages() + 1000))
	// The seek starts past the leftmost leaf's fence, so it descends through
	// the faulted page (a start at or below the fence would begin at the
	// leftmost leaf and read no internal page).
	s, err := NewClusteredSeek(tbl, []value.Value{key(100)}, nil, true, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.NumScanRows(); n != 0 {
		t.Errorf("NumScanRows over a faulted internal page = %d, want 0 (stay serial)", n)
	}
	if parts, ok := s.Morsels(500, false); ok {
		t.Errorf("split a faulted tree into %d parts", len(parts))
	}
	if _, err := Drain(nil, s); err == nil {
		t.Error("row protocol: scan over a faulted tree reported no error")
	}
	if _, err := DrainBatches(nil, s); err == nil {
		t.Error("batch protocol: scan over a faulted tree reported no error")
	}
}

// morselCounter is a Morseler that counts the morsel operators it makes.
type morselCounter struct {
	Morseler
	made int
}

func (m *morselCounter) Morsels(targetRows int, retain bool) ([]Operator, bool) {
	parts, ok := m.Morseler.Morsels(targetRows, retain)
	m.made += len(parts)
	return parts, ok
}

// TestPlanTimeSplitCheckMakesNoMorsel: whether a source parallelizes is
// decided at plan time from NumMorsels, a count over the leaves its range
// sizes, which equals the number of morsels Morsels makes for every
// access-path shape and target. Building each parallel operator makes no
// morsel operator; each Open makes one set.
func TestPlanTimeSplitCheckMakesNoMorsel(t *testing.T) {
	const rows = 3 * DefaultMorselRows
	_, clustered, heap := splitFixture(t, rows)
	iv := func(n int64) []value.Value { return []value.Value{value.NewInt(n)} }
	seek, err := NewClusteredSeek(clustered, iv(1500), iv(rows-900), true, false, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	covered, err := NewIndexSeek(clustered.Secondary[0], iv(5), iv(30), true, true, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	uncovered, err := NewIndexSeek(heap.Secondary[0], iv(5), iv(30), true, true, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]Morseler{
		"heap scan": NewSeqScan(heap, nil), "clustered scan": NewSeqScan(clustered, []int{0}),
		"clustered seek": seek, "covered index seek": covered, "uncovered index seek": uncovered,
	} {
		for _, target := range []int{1, 700, DefaultMorselRows, rows + 1} {
			parts, _ := src.Morsels(target, false)
			if n := src.NumMorsels(target); n != len(parts) {
				t.Errorf("%s target=%d: NumMorsels = %d, Morsels made %d", name, target, n, len(parts))
			}
		}
	}

	src := &morselCounter{Morseler: NewSeqScan(clustered, []int{1, 2})}
	want := src.NumMorsels(DefaultMorselRows)
	if want < 2 {
		t.Fatalf("fixture splits into %d morsels, want at least 2", want)
	}
	aggs := []AggSpec{{Kind: AggCountStar, Name: "n"}}
	merge, ok1 := NewParallelMerge(src, nil, 2)
	_, ok2 := NewParallelHashAggregate(src, nil, []int{0}, aggs, 2)
	_, ok3 := NewParallelStreamAggregate(src, nil, []int{0}, aggs, 2)
	_, ok4 := NewParallelSort(src, nil, []SortKey{{Col: 1}}, 2)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("a source of %d morsels did not parallelize: %v %v %v %v", want, ok1, ok2, ok3, ok4)
	}
	if src.made != 0 {
		t.Fatalf("planning four parallel operators made %d morsel operators, want none", src.made)
	}
	out, err := DrainBatches(nil, merge)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != rows || src.made != want {
		t.Errorf("an execution read %d rows through %d morsels, want %d through %d", len(out), src.made, rows, want)
	}
}
