package ctable

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/tpch"
	"oldelephant/internal/value"
)

// The builder sorts on keys encoded once and finds every column's runs from
// one pass of break depths. These tests hold it to the algorithm it replaced:
// a stable value.Compare sort of the source rows, then each column's runs
// found by comparing values with the row before.

// shapedEngine loads l(lk, ln, sk, sd, flag, price), o(ok, od, ck) and
// c(ck, nk): small domains, so sort keys tie often and runs form, and NULLs
// in sk and price. w(id, name, big, ratio) holds the values whose compact
// sort keys differ most from the in-memory ones: strings that are prefixes
// of one another or hold a 0x00 byte, negative and huge integers, negative
// floats, and NULLs in each.
func shapedEngine(t testing.TB, r *rand.Rand) *engine.Engine {
	t.Helper()
	e := engine.Default()
	for _, ddl := range []string{
		"CREATE TABLE l (lk INT, ln INT, sk INT, sd DATE, flag VARCHAR(1), price DOUBLE, PRIMARY KEY (lk, ln))",
		"CREATE TABLE o (ok INT, od DATE, ck INT, PRIMARY KEY (ok))",
		"CREATE TABLE c (ck INT, nk INT, PRIMARY KEY (ck))",
		"CREATE TABLE w (id INT, name VARCHAR(8), big BIGINT, ratio DOUBLE, PRIMARY KEY (id))",
	} {
		if _, err := e.Execute(ddl); err != nil {
			t.Fatal(err)
		}
	}
	base := value.MustParseDate("1995-01-01").Int()
	nullable := func(v value.Value) value.Value {
		if r.Intn(10) == 0 {
			return value.Null()
		}
		return v
	}
	var cRows, oRows, lRows [][]value.Value
	for ck := 0; ck < 40; ck++ {
		cRows = append(cRows, []value.Value{value.NewInt(int64(ck)), value.NewInt(int64(r.Intn(5)))})
	}
	for ok := 0; ok < 150; ok++ {
		oRows = append(oRows, []value.Value{value.NewInt(int64(ok)), value.NewDate(base + int64(r.Intn(20))), value.NewInt(int64(r.Intn(40)))})
		for ln := 0; ln < 1+r.Intn(6); ln++ {
			lRows = append(lRows, []value.Value{
				value.NewInt(int64(ok)), value.NewInt(int64(ln)),
				nullable(value.NewInt(int64(r.Intn(8)))),
				value.NewDate(base + int64(r.Intn(30))),
				value.NewString(string("ANR"[r.Intn(3)])),
				nullable(value.NewFloat(float64(r.Intn(400)) / 4)),
			})
		}
	}
	names := []string{"", "a", "a\x00", "a\x00b", "ab", "abc", "b"}
	bigs := []int64{math.MinInt64, -1 << 53, -256, -1, 0, 1, 255, 1<<53 + 1, math.MaxInt64}
	var wRows [][]value.Value
	for id := 0; id < 300; id++ {
		wRows = append(wRows, []value.Value{
			value.NewInt(int64(id)),
			nullable(value.NewString(names[r.Intn(len(names))])),
			nullable(value.NewInt(bigs[r.Intn(len(bigs))])),
			nullable(value.NewFloat(float64(r.Intn(9)-4) / 2)),
		})
	}
	for _, load := range []struct {
		table string
		rows  [][]value.Value
	}{{"c", cRows}, {"o", oRows}, {"l", lRows}, {"w", wRows}} {
		if err := e.BulkLoad(load.table, load.rows); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// shapedDesigns mirror the paper's D1, D2 and D4, and dw sorts on w's
// awkward values; each source selects the design's columns in design order,
// sort columns first.
var shapedDesigns = []struct {
	name, sql      string
	cols, sortCols []string
}{
	{"d1", "SELECT sd, sk FROM l", []string{"sd", "sk"}, []string{"sd", "sk"}},
	{"d2", "SELECT od, sk, sd FROM l, o WHERE lk = ok", []string{"od", "sk", "sd"}, []string{"od", "sk"}},
	{"d4", "SELECT flag, nk, price FROM l, o, c WHERE lk = ok AND o.ck = c.ck", []string{"flag", "nk", "price"}, []string{"flag"}},
	{"dw", "SELECT name, big, ratio FROM w", []string{"name", "big", "ratio"}, []string{"name", "big", "ratio"}},
}

// refRun is one (f, v, c) run of the reference algorithm.
type refRun struct {
	first int64
	val   value.Value
	count int64
}

// referenceTables builds every c-table's rows the way the builder used to:
// sort the source rows stably by value.Compare on the design columns, then
// cut each column into runs that also break where an earlier column does.
func referenceTables(rows []exec.Row, ncols int) [][]refRun {
	sorted := slices.Clone(rows)
	slices.SortStableFunc(sorted, func(a, b exec.Row) int {
		for p := 0; p < ncols; p++ {
			if c := value.Compare(a[p], b[p]); c != 0 {
				return c
			}
		}
		return 0
	})
	tables := make([][]refRun, ncols)
	for pos := range tables {
		var runs []refRun
		for i, row := range sorted {
			newRun := len(runs) == 0 || value.Compare(row[pos], runs[len(runs)-1].val) != 0
			for bp := 0; bp < pos && !newRun; bp++ {
				newRun = value.Compare(sorted[i-1][bp], row[bp]) != 0
			}
			if newRun {
				runs = append(runs, refRun{first: int64(i + 1), val: row[pos], count: 1})
			} else {
				runs[len(runs)-1].count++
			}
		}
		if float64(len(runs)) > denseRatio*float64(len(sorted)) {
			runs = runs[:0] // dense: one row per position
			for i, row := range sorted {
				runs = append(runs, refRun{first: int64(i + 1), val: row[pos], count: 1})
			}
		}
		tables[pos] = runs
	}
	return tables
}

func sameValue(a, b value.Value) bool {
	return a.Kind == b.Kind && value.Compare(a, b) == 0
}

// checkTable compares a c-table's rows in f order, and its v index's entries
// in index order, with the reference runs.
func checkTable(t *testing.T, e *engine.Engine, ct ColumnTable, want []refRun) {
	t.Helper()
	q := "SELECT f, v, c FROM " + ct.Table + " ORDER BY f"
	if ct.Dense {
		q = "SELECT f, v FROM " + ct.Table + " ORDER BY f"
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%s: %d rows, reference has %d", ct.Table, len(res.Rows), len(want))
	}
	for i, row := range res.Rows {
		w := want[i]
		if row[0].Int() != w.first || !sameValue(row[1], w.val) || (!ct.Dense && row[2].Int() != w.count) {
			t.Fatalf("%s row %d = %v, reference (%d, %v, %d)", ct.Table, i, row, w.first, w.val, w.count)
		}
	}
	// The v index holds one entry per row, ordered by (v, f): entry columns
	// are v, then f and c.
	byV := slices.Clone(want)
	slices.SortStableFunc(byV, func(a, b refRun) int { return value.Compare(a.val, b.val) })
	tbl, err := e.Catalog().Table(ct.Table)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Secondary) != 1 {
		t.Fatalf("%s has %d secondary indexes, want the v index", ct.Table, len(tbl.Secondary))
	}
	rng := tbl.Secondary[0].Range(nil, nil, false, false)
	cur := rng.Open()
	for i := 0; ; i++ {
		entry, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(byV) {
				t.Fatalf("%s: v index has %d entries, reference %d", ct.Table, i, len(byV))
			}
			break
		}
		if i >= len(byV) {
			t.Fatalf("%s: v index has more than the reference's %d entries", ct.Table, len(byV))
		}
		w := byV[i]
		if !sameValue(entry[0], w.val) || entry[1].Int() != w.first || (!ct.Dense && entry[2].Int() != w.count) {
			t.Fatalf("%s: v index entry %d = %v, reference (%v, %d, %d)", ct.Table, i, entry, w.val, w.first, w.count)
		}
	}
}

func TestBuildMatchesReferenceAlgorithm(t *testing.T) {
	var dense, rle int
	for seed := int64(1); seed <= 6; seed++ {
		e := shapedEngine(t, rand.New(rand.NewSource(seed)))
		for _, sd := range shapedDesigns {
			name := fmt.Sprintf("%s_%d", sd.name, seed)
			src, err := e.Query(sd.sql)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceTables(src.Rows, len(sd.cols))
			d, err := NewBuilder(e).Build(name, sd.sql, sd.cols, sd.sortCols)
			if err != nil {
				t.Fatal(err)
			}
			if err := NewBuilder(e).Verify(d); err != nil {
				t.Error(err)
			}
			for depth, ct := range d.Columns {
				if ct.Depth != depth || ct.Runs != int64(len(want[depth])) {
					t.Fatalf("%s: depth %d, %d runs; want depth %d, %d runs", ct.Table, ct.Depth, ct.Runs, depth, len(want[depth]))
				}
				checkTable(t, e, ct, want[depth])
				if ct.Dense {
					dense++
				} else {
					rle++
				}
			}
		}
	}
	if dense == 0 || rle == 0 {
		t.Errorf("the designs built %d dense and %d run-length c-tables; both forms must be covered", dense, rle)
	}
}

// BenchmarkBuildDesign builds the paper's D1, D2 and D4 over TPC-H SF 0.01
// (60,000 line items): evaluating each source, sorting it, cutting runs and
// loading every c-table with its v index.
func BenchmarkBuildDesign(b *testing.B) {
	e := engine.Default()
	if err := tpch.NewGenerator(0.01).LoadCore(e); err != nil {
		b.Fatal(err)
	}
	designs := []struct {
		name, sql      string
		cols, sortCols []string
	}{
		{"d1", "SELECT l_shipdate, l_suppkey FROM lineitem", []string{"l_shipdate", "l_suppkey"}, []string{"l_shipdate", "l_suppkey"}},
		{"d2", "SELECT o_orderdate, l_suppkey, l_shipdate FROM lineitem, orders WHERE l_orderkey = o_orderkey",
			[]string{"o_orderdate", "l_suppkey", "l_shipdate"}, []string{"o_orderdate", "l_suppkey"}},
		{"d4", "SELECT l_returnflag, c_nationkey, l_extendedprice FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey",
			[]string{"l_returnflag", "c_nationkey", "l_extendedprice"}, []string{"l_returnflag"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range designs {
			if _, err := NewBuilder(e).Build(fmt.Sprintf("%s_%d", d.name, i), d.sql, d.cols, d.sortCols); err != nil {
				b.Fatal(err)
			}
		}
	}
}
