package catalog

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

func newTestCatalog() *Catalog {
	return New(storage.NewPager(0))
}

func lineitemColumns() []Column {
	return []Column{
		{Name: "l_orderkey", Kind: value.KindInt},
		{Name: "l_suppkey", Kind: value.KindInt},
		{Name: "l_shipdate", Kind: value.KindDate},
		{Name: "l_extendedprice", Kind: value.KindFloat},
		{Name: "l_returnflag", Kind: value.KindString},
	}
}

func TestCreateAndLookupTable(t *testing.T) {
	c := newTestCatalog()
	tb, err := c.CreateTable("lineitem", lineitemColumns(), []string{"l_orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.IsClustered() {
		t.Error("table should be clustered")
	}
	if _, err := c.CreateTable("lineitem", lineitemColumns(), nil); err == nil {
		t.Error("duplicate table creation should fail")
	}
	if _, err := c.CreateTable("empty", nil, nil); err == nil {
		t.Error("table without columns should fail")
	}
	if _, err := c.CreateTable("dup", []Column{{Name: "a"}, {Name: "A"}}, nil); err == nil {
		t.Error("duplicate column names should fail")
	}
	if _, err := c.CreateTable("badkey", []Column{{Name: "a"}}, []string{"nope"}); err == nil {
		t.Error("clustered key on missing column should fail")
	}
	got, err := c.Table("LINEITEM")
	if err != nil || got != tb {
		t.Error("case-insensitive lookup failed")
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("lookup of missing table should fail")
	}
	if !c.HasTable("lineitem") || c.HasTable("nope") {
		t.Error("HasTable wrong")
	}
	if n := len(c.Tables()); n != 1 {
		t.Errorf("Tables() returned %d", n)
	}
	if err := c.DropTable("lineitem"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("lineitem"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestColumnHelpers(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("t", lineitemColumns(), nil)
	if tb.ColumnIndex("L_SHIPDATE") != 2 {
		t.Error("ColumnIndex should be case-insensitive")
	}
	if tb.ColumnIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
	names := tb.ColumnNames()
	if len(names) != 5 || names[0] != "l_orderkey" {
		t.Errorf("ColumnNames = %v", names)
	}
}

func makeRow(orderkey, suppkey int64, shipdate string, price float64, flag string) []value.Value {
	return []value.Value{
		value.NewInt(orderkey),
		value.NewInt(suppkey),
		value.MustParseDate(shipdate),
		value.NewFloat(price),
		value.NewString(flag),
	}
}

func TestInsertAndScanClustered(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("lineitem", lineitemColumns(), []string{"l_shipdate", "l_suppkey"})
	// Insert in random order; scan must come back sorted by (shipdate, suppkey).
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	for i := 0; i < n; i++ {
		day := 1 + rng.Intn(28)
		row := makeRow(int64(i), int64(rng.Intn(50)), fmt.Sprintf("1995-03-%02d", day), 100.5, "N")
		if err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if tb.RowCount() != n {
		t.Fatalf("RowCount = %d", tb.RowCount())
	}
	it := tb.Scan()
	var prev []value.Value
	count := 0
	for {
		row, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if prev != nil {
			cmpDate := value.Compare(prev[2], row[2])
			if cmpDate > 0 || (cmpDate == 0 && value.Compare(prev[1], row[1]) > 0) {
				t.Fatalf("clustered scan out of order at row %d", count)
			}
		}
		prev = row
		count++
	}
	if count != n {
		t.Fatalf("scan saw %d rows", count)
	}
	if pages, err := tb.DataPages(); err != nil || pages == 0 {
		t.Errorf("clustered table reports %d data pages, err %v", pages, err)
	}
	// Wrong arity is rejected.
	if err := tb.Insert([]value.Value{value.NewInt(1)}); err == nil {
		t.Error("wrong arity insert should fail")
	}
}

func TestClusteredRange(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("lineitem", lineitemColumns(), []string{"l_shipdate", "l_suppkey"})
	var rows [][]value.Value
	for day := 1; day <= 20; day++ {
		for supp := 0; supp < 5; supp++ {
			rows = append(rows, makeRow(int64(day*100+supp), int64(supp), fmt.Sprintf("1995-03-%02d", day), 10, "N"))
		}
	}
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	lo := []value.Value{value.MustParseDate("1995-03-05")}
	hi := []value.Value{value.MustParseDate("1995-03-07")}
	rng, err := tb.Range(lo, hi, true, true)
	if err != nil {
		t.Fatal(err)
	}
	it := rng.Open()
	count := 0
	for {
		row, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		d := row[2].String()
		if d < "1995-03-05" || d > "1995-03-07" {
			t.Errorf("row outside range: %s", d)
		}
		count++
	}
	if count != 15 {
		t.Errorf("range scan saw %d rows, want 15", count)
	}
	// Exclusive lower bound skips the boundary day.
	rng, _ = tb.Range(lo, hi, false, true)
	it = rng.Open()
	count = 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 10 {
		t.Errorf("exclusive-low range saw %d rows, want 10", count)
	}
	// Heap tables refuse bounded ranges.
	heapTb, _ := c.CreateTable("h", lineitemColumns(), nil)
	if _, err := heapTb.Range(lo, hi, true, true); err == nil {
		t.Error("bounded Range on heap should fail")
	}
}

func TestHeapTableAndRIDLookup(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("h", lineitemColumns(), nil)
	for i := 0; i < 100; i++ {
		if err := tb.Insert(makeRow(int64(i), int64(i%7), "1996-01-01", float64(i), "R")); err != nil {
			t.Fatal(err)
		}
	}
	if tb.IsClustered() {
		t.Error("heap table should not be clustered")
	}
	if tb.RowCount() != 100 {
		t.Errorf("RowCount = %d", tb.RowCount())
	}
	// Index on a heap table stores RIDs that can be chased back to rows.
	idx, err := c.CreateIndex("h_supp", "h", []string{"l_suppkey"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	three := []value.Value{value.NewInt(3)}
	rng := idx.Range(three, three, true, true)
	it := rng.Open()
	found := 0
	var key, payload [1][]byte
	for it.NextSpans(key[:], payload[:]) == 1 {
		loc, err := idx.Locator(key[0])
		if err != nil {
			t.Fatalf("heap index entry carries no locator: %v", err)
		}
		row, err := tb.Lookup(loc)
		if err != nil {
			t.Fatal(err)
		}
		if row[1].Int() != 3 {
			t.Errorf("RID lookup returned suppkey %v", row[1])
		}
		found++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if found != 14 { // suppkey = i%7 == 3 for i in {3,10,...,94}: 14 rows
		t.Errorf("found %d rows with suppkey 3, want 14", found)
	}
	// A keyless row's locator, its uniquifier, names no row of a clustered
	// table, and one past the last row names none of the keyless table.
	cl, _ := c.CreateTable("cl", lineitemColumns(), []string{"l_orderkey"})
	if _, err := cl.Lookup([]byte{0, 0, 0, 1}); err == nil {
		t.Error("Lookup of a keyless row's locator on a clustered table should fail")
	}
	if _, err := tb.Lookup([]byte{0, 0, 0, 100}); err == nil {
		t.Error("Lookup of a locator past the last keyless row should fail")
	}
	if _, err := tb.Lookup([]byte{1, 2, 3}); err == nil {
		t.Error("Lookup of a malformed RID on a heap should fail")
	}
}

// TestKeylessScanCountsSequentialIO: a cold scan of a keyless table filled by
// single-row inserts reads each leaf once, from the leftmost with no descent,
// and mostly in sequence: appends allocate the leaves in insertion order.
func TestKeylessScanCountsSequentialIO(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("h", lineitemColumns(), nil)
	for i := 0; i < 20000; i++ {
		if err := tb.Insert(makeRow(int64(i), int64(i%7), "1996-01-01", float64(i)/3, "R")); err != nil {
			t.Fatal(err)
		}
	}
	leaves, err := tb.DataPages()
	if err != nil {
		t.Fatal(err)
	}
	pg := c.Pager()
	pg.ResetCache()
	pg.ResetStats()
	cur, n := tb.Scan(), 0
	for {
		row, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if row[0].Int() != int64(n) {
			t.Fatalf("row %d of the scan was inserted as row %d", n, row[0].Int())
		}
		n++
	}
	s := pg.Stats()
	if n != 20000 || s.PageReads != int64(leaves) {
		t.Errorf("cold scan read %d rows from %d pages, the table has 20000 rows in %d leaves", n, s.PageReads, leaves)
	}
	if s.RandReads > s.SeqReads {
		t.Errorf("keyless scan should be mostly sequential: %+v", s)
	}
}

// TestKeylessInsertRejectsOversizedRow: a row larger than a page holds is
// refused, and the keyless table keeps no trace of it.
func TestKeylessInsertRejectsOversizedRow(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("h", []Column{{Name: "s", Kind: value.KindString}}, nil)
	pages := c.Pager().NumPages()
	if err := tb.Insert([]value.Value{value.NewString(strings.Repeat("x", storage.PageSize))}); err == nil {
		t.Fatal("a row larger than a page was stored")
	}
	if tb.RowCount() != 0 || tb.Stats.RowCount != 0 || c.Pager().NumPages() != pages {
		t.Errorf("the refused row left %d rows, statistics of %d rows, %d pages of %d", tb.RowCount(), tb.Stats.RowCount, c.Pager().NumPages(), pages)
	}
}

// TestUniquifierNumbersKeylessRows: a keyless table's rows are numbered by
// the uniquifier alone — the first row's tree key is empty, the next ones
// 1, 2, … big-endian — and a key whose uniquifier is spent is an error that
// names the table.
func TestUniquifierNumbersKeylessRows(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("log", []Column{{Name: "a", Kind: value.KindInt}}, nil)
	for i := 0; i < 3; i++ {
		if err := tb.Insert([]value.Value{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	_, locs, err := tb.scanStored()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]byte{{}, {0, 0, 0, 1}, {0, 0, 0, 2}}; !slices.EqualFunc(locs, want, bytes.Equal) {
		t.Errorf("keyless tree keys %x, want %x", locs, want)
	}
	if _, err := tb.uniquify(nil, []byte{0xFF, 0xFF, 0xFF, 0xFF}, true); err == nil || !strings.Contains(err.Error(), `"log"`) {
		t.Errorf("a spent uniquifier gave error %v, want one naming the table", err)
	}
}

func TestSecondaryIndexCoveringAndSeek(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("lineitem", lineitemColumns(), []string{"l_shipdate", "l_suppkey"})
	var rows [][]value.Value
	for i := 0; i < 1000; i++ {
		rows = append(rows, makeRow(int64(i), int64(i%10), fmt.Sprintf("1995-%02d-15", 1+i%12), float64(i), "N"))
	}
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	idx, err := c.CreateIndex("ix_supp", "lineitem", []string{"l_suppkey"}, []string{"l_extendedprice"}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Covers: key col, included col, clustered key cols.
	if !idx.Covers([]int{1, 3, 2}) {
		t.Error("index should cover suppkey, price and shipdate")
	}
	if idx.Covers([]int{0}) {
		t.Error("index should not cover l_orderkey")
	}
	if idx.Covers([]int{4}) {
		t.Error("index should not cover l_returnflag")
	}
	names := idx.KeyColumnNames()
	if len(names) != 1 || names[0] != "l_suppkey" {
		t.Errorf("KeyColumnNames = %v", names)
	}
	// Seek suppkey = 4: 100 entries, each exposing price and shipdate.
	four := []value.Value{value.NewInt(4)}
	rng := idx.Range(four, four, true, true)
	it := rng.Open()
	ords := idx.EntryColumnOrdinals()
	count := 0
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(e) != len(ords) {
			t.Fatalf("entry has %d values, want %d", len(e), len(ords))
		}
		if e[0].Int() != 4 {
			t.Errorf("entry key = %v", e[0])
		}
		count++
	}
	if count != 100 {
		t.Errorf("seek found %d entries, want 100", count)
	}
	// Full index scan is ordered by key.
	all := idx.Range(nil, nil, false, false)
	scan := all.Open()
	prev := int64(-1)
	total := 0
	for {
		e, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e[0].Int() < prev {
			t.Fatal("index scan out of order")
		}
		prev = e[0].Int()
		total++
	}
	if total != 1000 {
		t.Errorf("index scan saw %d entries", total)
	}
	// Errors: duplicate index name, missing columns, unique violation.
	if _, err := c.CreateIndex("ix_supp", "lineitem", []string{"l_suppkey"}, nil, false); err == nil {
		t.Error("duplicate index name should fail")
	}
	if _, err := c.CreateIndex("ix_bad", "lineitem", []string{"missing"}, nil, false); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := c.CreateIndex("ix_badinc", "lineitem", []string{"l_suppkey"}, []string{"missing"}, false); err == nil {
		t.Error("include of missing column should fail")
	}
	if _, err := c.CreateIndex("ix_uniq", "lineitem", []string{"l_suppkey"}, nil, true); err == nil {
		t.Error("unique index over duplicate values should fail")
	}
	if _, err := c.CreateIndex("ix_ok_uniq", "lineitem", []string{"l_orderkey"}, nil, true); err != nil {
		t.Errorf("unique index over unique values failed: %v", err)
	}
	if _, err := c.CreateIndex("ix", "missing", []string{"x"}, nil, false); err == nil {
		t.Error("index on missing table should fail")
	}
}

func TestIndexMaintainedByInserts(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("t", lineitemColumns(), []string{"l_orderkey"})
	if _, err := c.CreateIndex("ix", "t", []string{"l_suppkey"}, nil, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tb.Insert(makeRow(int64(i), int64(i%5), "1997-07-07", 1, "A")); err != nil {
			t.Fatal(err)
		}
	}
	idx := tb.Secondary[0]
	two := []value.Value{value.NewInt(2)}
	rng := idx.Range(two, two, true, true)
	it := rng.Open()
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("index sees %d entries for suppkey 2, want 10", n)
	}
}

func TestBulkLoadMatchesInsertResults(t *testing.T) {
	c := newTestCatalog()
	a, _ := c.CreateTable("a", lineitemColumns(), []string{"l_shipdate"})
	b, _ := c.CreateTable("b", lineitemColumns(), []string{"l_shipdate"})
	rng := rand.New(rand.NewSource(11))
	var rows [][]value.Value
	for i := 0; i < 500; i++ {
		rows = append(rows, makeRow(int64(i), int64(rng.Intn(9)), fmt.Sprintf("199%d-0%d-1%d", rng.Intn(8), 1+rng.Intn(9), rng.Intn(9)), float64(i), "R"))
	}
	for _, r := range rows {
		if err := a.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	ia, ib := a.Scan(), b.Scan()
	for {
		ra, oka, err := ia.Next()
		if err != nil {
			t.Fatal(err)
		}
		rb, okb, err := ib.Next()
		if err != nil {
			t.Fatal(err)
		}
		if oka != okb {
			t.Fatal("row counts differ between insert and bulk load")
		}
		if !oka {
			break
		}
		if value.Compare(ra[2], rb[2]) != 0 {
			t.Fatalf("clustered order differs: %v vs %v", ra[2], rb[2])
		}
	}
}

func TestStats(t *testing.T) {
	c := newTestCatalog()
	tb, _ := c.CreateTable("t", lineitemColumns(), []string{"l_orderkey"})
	for i := 0; i < 1000; i++ {
		flag := "N"
		if i%4 == 0 {
			flag = "R"
		}
		row := makeRow(int64(i), int64(i%20), fmt.Sprintf("1995-01-%02d", 1+i%28), float64(i), flag)
		if i%10 == 0 {
			row[3] = value.Null()
		}
		if err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	st := tb.Stats
	if st.RowCount != 1000 {
		t.Errorf("RowCount = %d", st.RowCount)
	}
	if d := st.DistinctCount(1); d != 20 {
		t.Errorf("distinct suppkey = %d, want 20", d)
	}
	if d := st.DistinctCount(4); d != 2 {
		t.Errorf("distinct returnflag = %d, want 2", d)
	}
	if st.NullCount(3) != 100 {
		t.Errorf("null count = %d", st.NullCount(3))
	}
	minV, maxV := st.MinMax(0)
	if minV.Int() != 0 || maxV.Int() != 999 {
		t.Errorf("min/max orderkey = %v/%v", minV, maxV)
	}
	if s := st.SelectivityEquals(1); s < 0.04 || s > 0.06 {
		t.Errorf("equality selectivity = %f", s)
	}
	full := st.SelectivityRange(0, value.NewInt(0), value.NewInt(999))
	if full < 0.99 {
		t.Errorf("full range selectivity = %f", full)
	}
	half := st.SelectivityRange(0, value.NewInt(500), value.Null())
	if half < 0.4 || half > 0.6 {
		t.Errorf("half range selectivity = %f", half)
	}
	empty := st.SelectivityRange(0, value.NewInt(2000), value.NewInt(3000))
	if empty != 0 {
		t.Errorf("out-of-range selectivity = %f", empty)
	}
	// Out-of-range column ordinals are safe.
	if st.DistinctCount(99) != 1 || st.NullCount(99) != 0 {
		t.Error("out-of-range column stats should degrade gracefully")
	}
	mn, mx := st.MinMax(99)
	if !mn.IsNull() || !mx.IsNull() {
		t.Error("out-of-range MinMax should be NULL")
	}
}
