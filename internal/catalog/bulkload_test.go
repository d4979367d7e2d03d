package catalog

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// TestBulkLoadRefusesNonEmptyTable: a bulk load replaces a tree's root, so a
// second load would orphan the first one's pages while the statistics count
// both. It is refused, and the table, its pages and its statistics stay as
// they were.
func TestBulkLoadRefusesNonEmptyTable(t *testing.T) {
	for _, clustered := range [][]string{{"k"}, nil} {
		c := newTestCatalog()
		tbl, err := c.CreateTable("t", []Column{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}}, clustered)
		if err != nil {
			t.Fatal(err)
		}
		batch := func(from int) [][]value.Value {
			var rows [][]value.Value
			for i := from; i < from+1000; i++ {
				rows = append(rows, []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i * 7))})
			}
			return rows
		}
		if err := tbl.BulkLoad(batch(0)); err != nil {
			t.Fatal(err)
		}
		pages := c.Pager().NumPages()
		if err := tbl.BulkLoad(batch(1000)); err == nil {
			t.Fatalf("clustered=%v: a bulk load into a loaded table was accepted", clustered)
		}
		if n := c.Pager().NumPages(); n != pages {
			t.Errorf("clustered=%v: the refused load allocated pages: %d -> %d", clustered, pages, n)
		}
		if tbl.RowCount() != 1000 || tbl.Stats.RowCount != 1000 {
			t.Errorf("clustered=%v: %d rows stored, statistics count %d; want 1000 and 1000", clustered, tbl.RowCount(), tbl.Stats.RowCount)
		}
		cur, n := tbl.Scan(), 0
		for {
			_, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != 1000 {
			t.Errorf("clustered=%v: a scan returns %d rows, want 1000", clustered, n)
		}
	}
}

// TestRefusedBulkLoadLeavesNoTrace: a row too large for a page, or a
// duplicate in a unique index, refuses the whole load before any row is
// stored or any page allocated, on a keyed table and on a keyless one. The
// table keeps no rows, its statistics stay empty, and a load of good rows
// succeeds afterwards. A keyless table once stored its rows in a heap before
// its unique index found the duplicate.
func TestRefusedBulkLoadLeavesNoTrace(t *testing.T) {
	rows := make([][]value.Value, 1000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewString(fmt.Sprint("s", i))}
	}
	tooLarge, dup := slices.Clone(rows), slices.Clone(rows)
	tooLarge[900] = []value.Value{value.NewInt(900), value.NewString(strings.Repeat("x", 20000))}
	dup[900] = []value.Value{value.NewInt(10), value.NewString("dup")}
	for _, tc := range []struct {
		name   string
		key    []string
		unique bool
		rows   [][]value.Value
	}{
		{"keyed, a row too large", []string{"k"}, false, tooLarge},
		{"keyless, a row too large", nil, false, tooLarge},
		{"keyless, a duplicate in a unique index", nil, true, dup},
	} {
		c := newTestCatalog()
		tbl, err := c.CreateTable("t", []Column{{Name: "k", Kind: value.KindInt}, {Name: "s", Kind: value.KindString}}, tc.key)
		if err != nil {
			t.Fatal(err)
		}
		if tc.unique {
			if _, err := c.CreateIndex("t_k", "t", []string{"k"}, nil, true); err != nil {
				t.Fatal(err)
			}
		}
		pages := c.Pager().NumPages()
		if err := tbl.BulkLoad(tc.rows); err == nil {
			t.Fatalf("%s: the load was accepted", tc.name)
		}
		if tbl.RowCount() != 0 || tbl.Stats.RowCount != 0 || tbl.Stats.DataBytes != 0 {
			t.Errorf("%s: the refused load left %d rows, statistics of %d rows and %d bytes",
				tc.name, tbl.RowCount(), tbl.Stats.RowCount, tbl.Stats.DataBytes)
		}
		for _, ix := range tbl.Secondary {
			if n := ix.Tree().Count(); n != 0 {
				t.Errorf("%s: the refused load left %d entries in index %s", tc.name, n, ix.Name)
			}
		}
		if n := c.Pager().NumPages(); n != pages {
			t.Errorf("%s: the refused load allocated pages: %d -> %d", tc.name, pages, n)
		}
		if err := tbl.BulkLoad(rows[:10]); err != nil {
			t.Fatalf("%s: a load of good rows after the refused one: %v", tc.name, err)
		}
		if tbl.RowCount() != 10 || tbl.Stats.RowCount != 10 {
			t.Errorf("%s: after the retry %d rows, statistics count %d; want 10 and 10", tc.name, tbl.RowCount(), tbl.Stats.RowCount)
		}
	}
}

// bulkRows returns n rows (k, seq, s) with k drawn from few values, so many
// rows share a clustered key, and seq their position: the input order a
// load must keep among rows sharing k.
func bulkRows(r *rand.Rand, n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{
			value.NewInt(int64(r.Intn(n / 4))),
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("s%03d", r.Intn(300))),
		}
	}
	return rows
}

// arrangements returns rows in three input orders that agree on the order of
// rows sharing a key: sorted by key, key groups reversed, and a random
// interleaving of the groups.
func arrangements(r *rand.Rand, rows [][]value.Value) map[string][][]value.Value {
	byKey := func(a, b []value.Value) int { return value.Compare(a[0], b[0]) }
	sorted := slices.Clone(rows)
	slices.SortStableFunc(sorted, byKey)
	reversed := slices.Clone(rows)
	slices.SortStableFunc(reversed, func(a, b []value.Value) int { return byKey(b, a) })
	// Shuffle, then restore each key's rows to their original relative order
	// in the slots the key landed on.
	shuffled := slices.Clone(rows)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	slots := make(map[int64][]int)
	for i, row := range shuffled {
		slots[row[0].I] = append(slots[row[0].I], i)
	}
	for _, row := range rows {
		k := row[0].I
		shuffled[slots[k][0]], slots[k] = row, slots[k][1:]
	}
	return map[string][][]value.Value{"sorted": sorted, "reversed": reversed, "shuffled": shuffled}
}

// loadPages bulk-loads rows into a fresh catalog's table — with one secondary
// index that exists before the load and one the load creates — and returns
// the bytes of every page and the table.
func loadPages(t *testing.T, rows [][]value.Value) ([][]byte, *Table) {
	t.Helper()
	c := newTestCatalog()
	cols := []Column{{Name: "k", Kind: value.KindInt}, {Name: "seq", Kind: value.KindInt}, {Name: "s", Kind: value.KindString}}
	tbl, err := c.CreateTable("t", cols, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("ix_s", "t", []string{"s"}, []string{"seq"}, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad(rows, IndexDef{Name: "ix_seq", Columns: []string{"seq"}}); err != nil {
		t.Fatal(err)
	}
	var pages [][]byte
	for id := 1; id <= c.Pager().NumPages(); id++ { // page ids start at 1
		data, err := c.Pager().PageData(storage.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, data)
	}
	return pages, tbl
}

// TestBulkLoadIsOrderIndependent: whether the input arrives in clustered-key
// order (no sort), reversed or shuffled, a bulk load writes the same bytes to
// the same pages, and rows sharing a clustered key keep their input order.
func TestBulkLoadIsOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rows := bulkRows(r, 4000)
	want, _ := loadPages(t, arrangements(r, rows)["sorted"])
	for name, input := range arrangements(r, rows) {
		got, tbl := loadPages(t, input)
		if len(got) != len(want) {
			t.Fatalf("%s: %d pages, sorted input wrote %d", name, len(got), len(want))
		}
		for id := range got {
			if !bytes.Equal(got[id], want[id]) {
				t.Fatalf("%s: page %d differs from the sorted input's", name, id)
			}
		}
		cur := tbl.Scan()
		var prev []value.Value
		for {
			row, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if prev != nil && prev[0].I == row[0].I && prev[1].I > row[1].I {
				t.Fatalf("%s: key %d: row %d stored before row %d", name, row[0].I, prev[1].I, row[1].I)
			}
			prev = row
		}
	}
}

// BenchmarkTableBulkLoad loads 100,000 lineitem-shaped rows into a table
// clustered on (l_orderkey, l_linenumber), arriving in key order — the
// sort-free path TPC-H and c-table loads take — or shuffled. The stats
// variant loads 100,000 rows of twelve INT columns of 200 to 4,000 distinct
// values each in random order, so every row reaches every column's exact
// distinct set: the statistics, not the tree, dominate it.
func BenchmarkTableBulkLoad(b *testing.B) {
	cols := append(lineitemColumns(), Column{Name: "l_linenumber", Kind: value.KindInt})
	r := rand.New(rand.NewSource(1))
	var rows [][]value.Value
	for ok := 0; len(rows) < 100000; ok++ {
		for ln, lines := 1, 1+r.Intn(7); ln <= lines; ln++ {
			rows = append(rows, []value.Value{
				value.NewInt(int64(ok)), value.NewInt(int64(r.Intn(1000))), value.NewDate(int64(8000 + r.Intn(2500))),
				value.NewFloat(float64(r.Intn(1e7)) / 100), value.NewString("NRA"[r.Intn(3):][:1]), value.NewInt(int64(ln)),
			})
		}
	}
	shuffled := slices.Clone(rows)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	statsCols := []Column{{Name: "id", Kind: value.KindInt}}
	var statsRows [][]value.Value
	for c := 1; c <= 12; c++ {
		statsCols = append(statsCols, Column{Name: fmt.Sprintf("c%d", c), Kind: value.KindInt})
	}
	for i := 0; i < 100000; i++ {
		row := []value.Value{value.NewInt(int64(i))}
		for c := 1; c <= 12; c++ {
			row = append(row, value.NewInt(int64(r.Intn(c*333))))
		}
		statsRows = append(statsRows, row)
	}
	for _, bc := range []struct {
		name string
		cols []Column
		key  []string
		rows [][]value.Value
	}{
		{"sorted", cols, []string{"l_orderkey", "l_linenumber"}, rows},
		{"shuffled", cols, []string{"l_orderkey", "l_linenumber"}, shuffled},
		{"stats", statsCols, []string{"id"}, statsRows},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := newTestCatalog()
				tbl, err := c.CreateTable("lineitem", bc.cols, bc.key)
				if err != nil {
					b.Fatal(err)
				}
				if err := tbl.BulkLoad(bc.rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPreparedLoadWritesLikeBulkLoad: a load worked out before its table
// exists (Catalog.PrepareLoad), then written into the table CreateTable makes,
// leaves the pages, anchors and statistics a BulkLoad of the same rows into
// the same table leaves. It is written once: again, or into a table of
// another schema, it is refused and the table is untouched.
func TestPreparedLoadWritesLikeBulkLoad(t *testing.T) {
	cols := []Column{{Name: "f", Kind: value.KindInt}, {Name: "v", Kind: value.KindDate}}
	var rows [][]value.Value
	for i := 0; i < 5000; i++ {
		rows = append(rows, []value.Value{value.NewInt(int64(i + 1)), value.NewDate(int64(9000 + i%37))})
	}
	ix := IndexDef{Name: "ix_v", Columns: []string{"v"}, Include: []string{"f"}}
	layout := func(c *Catalog, tb *Table) string {
		var b strings.Builder
		for id := storage.PageID(1); int(id) <= c.Pager().NumPages(); id++ {
			data, err := c.Pager().PageData(id)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%x ", crc32.ChecksumIEEE(data))
		}
		lo, hi := tb.Stats.MinMax(1)
		fmt.Fprintf(&b, "%+v %+v %d %d %v %v", tb.Clustered.Tree().Anchors().Count, tb.Secondary[0].Tree().Anchors().Height,
			tb.Stats.DataBytes, tb.Stats.DistinctCount(1), lo, hi)
		return b.String()
	}
	direct := newTestCatalog()
	tb, err := direct.CreateTable("t", cols, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoad(rows, ix); err != nil {
		t.Fatal(err)
	}
	prepared := newTestCatalog()
	l, err := prepared.PrepareLoad("t", cols, []string{"f"}, nil, rows, ix)
	if err != nil {
		t.Fatal(err)
	}
	other, err := newTestCatalog().CreateTable("t", []Column{{Name: "f", Kind: value.KindInt}}, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.WriteLoad(l); err == nil || other.RowCount() != 0 {
		t.Fatalf("a load for another schema was written: error %v, %d rows", err, other.RowCount())
	}
	pt, err := prepared.CreateTable("t", cols, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.WriteLoad(l); err != nil {
		t.Fatal(err)
	}
	if got, want := layout(prepared, pt), layout(direct, tb); got != want {
		t.Fatalf("prepared load wrote\n %s\nbulk load wrote\n %s", got, want)
	}
	if err := pt.WriteLoad(l); err == nil {
		t.Fatal("a load was written twice")
	}
}
