package ctable

import (
	"strings"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

// paperExampleEngine loads the 12-row table of Figure 3(a) of the paper.
func paperExampleEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.Default()
	if _, err := e.Execute("CREATE TABLE t (a INT, b INT, c INT, PRIMARY KEY (a, b, c))"); err != nil {
		t.Fatal(err)
	}
	rows := [][]int64{
		{1, 1, 1}, {1, 1, 4}, {1, 2, 4}, {1, 2, 5}, {1, 2, 5},
		{2, 1, 1}, {2, 1, 1}, {2, 3, 1}, {2, 3, 2}, {2, 3, 2}, {2, 3, 3}, {2, 3, 4},
	}
	var load [][]value.Value
	for _, r := range rows {
		load = append(load, []value.Value{value.NewInt(r[0]), value.NewInt(r[1]), value.NewInt(r[2])})
	}
	if err := e.BulkLoad("t", load); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPaperFigure3Example(t *testing.T) {
	e := paperExampleEngine(t)
	b := NewBuilder(e)
	d, err := b.Build("fig3", "SELECT a, b, c FROM t", []string{"a", "b", "c"}, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows != 12 {
		t.Fatalf("NumRows = %d", d.NumRows)
	}
	// Ta: (1,1,5), (6,2,7) — exactly as in Figure 3(b).
	ta, ok := d.Column("a")
	if !ok || ta.Dense {
		t.Fatalf("column a metadata = %+v", ta)
	}
	res, err := e.Query("SELECT f, v, c FROM " + ta.Table + " ORDER BY f")
	if err != nil {
		t.Fatal(err)
	}
	wantA := [][3]int64{{1, 1, 5}, {6, 2, 7}}
	if len(res.Rows) != len(wantA) {
		t.Fatalf("Ta rows = %v", res.Rows)
	}
	for i, w := range wantA {
		r := res.Rows[i]
		if r[0].Int() != w[0] || r[1].Int() != w[1] || r[2].Int() != w[2] {
			t.Errorf("Ta row %d = %v, want %v", i, r, w)
		}
	}
	// Tb: (1,1,2), (3,2,3), (6,1,2), (8,3,5).
	tb, _ := d.Column("b")
	res, err = e.Query("SELECT f, v, c FROM " + tb.Table + " ORDER BY f")
	if err != nil {
		t.Fatal(err)
	}
	wantB := [][3]int64{{1, 1, 2}, {3, 2, 3}, {6, 1, 2}, {8, 3, 5}}
	if len(res.Rows) != len(wantB) {
		t.Fatalf("Tb rows = %v", res.Rows)
	}
	for i, w := range wantB {
		r := res.Rows[i]
		if r[0].Int() != w[0] || r[1].Int() != w[1] || r[2].Int() != w[2] {
			t.Errorf("Tb row %d = %v, want %v", i, r, w)
		}
	}
	// Tc barely compresses (9 runs over 12 rows), so it uses the dense (f, v)
	// representation, exactly like T_C in Figure 3(b).
	tc, _ := d.Column("c")
	if !tc.Dense {
		t.Errorf("column c should use the dense representation (runs=%d)", tc.Runs)
	}
	res, err = e.Query("SELECT f, v FROM " + tc.Table + " ORDER BY f")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("Tc rows = %d, want 12", len(res.Rows))
	}
	if res.Rows[0][1].Int() != 1 || res.Rows[1][1].Int() != 4 || res.Rows[11][1].Int() != 4 {
		t.Errorf("Tc values wrong: first=%v second=%v last=%v", res.Rows[0], res.Rows[1], res.Rows[11])
	}
	// The invariants of Section 2.2.1 hold.
	if err := b.Verify(d); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Design helpers.
	if !d.HasColumn("A") || d.HasColumn("z") {
		t.Error("HasColumn wrong")
	}
	if d.TotalRuns() != 2+4+12 {
		t.Errorf("TotalRuns = %d", d.TotalRuns())
	}
	// The secondary covering index on v exists on each c-table.
	tab, err := e.Catalog().Table(ta.Table)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Secondary) != 1 {
		t.Errorf("expected a value index on %s", ta.Table)
	}
}

func TestRunsBreakOnEarlierSortColumns(t *testing.T) {
	// Column values that repeat across a boundary of the previous sort column
	// must still start a new run (the paper's "additionally agree with all the
	// previous sort columns").
	e := engine.Default()
	if _, err := e.Execute("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))"); err != nil {
		t.Fatal(err)
	}
	load := [][]value.Value{
		{value.NewInt(1), value.NewInt(7)},
		{value.NewInt(1), value.NewInt(7)},
		{value.NewInt(2), value.NewInt(7)}, // same b value, new a run
		{value.NewInt(2), value.NewInt(7)},
	}
	if err := e.BulkLoad("t", load); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(e)
	d, err := b.Build("brk", "SELECT a, b FROM t", []string{"a", "b"}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := d.Column("b")
	res, err := e.Query("SELECT f, v, c FROM " + tb.Table + " ORDER BY f")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("b should have 2 runs (split at the a boundary), got %d", len(res.Rows))
	}
	if res.Rows[0][2].Int() != 2 || res.Rows[1][2].Int() != 2 {
		t.Errorf("run lengths = %v", res.Rows)
	}
	if err := b.Verify(d); err != nil {
		t.Error(err)
	}
}

func TestBuildValidation(t *testing.T) {
	e := paperExampleEngine(t)
	b := NewBuilder(e)
	if _, err := b.Build("x", "SELECT a FROM t", nil, nil); err == nil {
		t.Error("empty column list should fail")
	}
	if _, err := b.Build("x", "SELECT a FROM missing", []string{"a"}, []string{"a"}); err == nil {
		t.Error("bad source SQL should fail")
	}
	if _, err := b.Build("x", "SELECT a FROM t", []string{"a", "zz"}, []string{"a"}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := b.Build("x", "SELECT a FROM t", []string{"a"}, []string{"b"}); err == nil {
		t.Error("sort column outside design should fail")
	}
	if _, err := b.Build("x", "SELECT DISTINCT a FROM t", []string{"a"}, []string{"a"}); err == nil {
		t.Error("a source with no shape should fail")
	}
	// Building the same design twice collides on table names.
	if _, err := b.Build("dup", "SELECT a FROM t", []string{"a"}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build("dup", "SELECT a FROM t", []string{"a"}, []string{"a"}); err == nil {
		t.Error("duplicate design should fail")
	}
}

// TestBuildRefusesGroupedSource: a design encodes ungrouped rows, so a
// source that groups or aggregates is refused, with the reason named.
func TestBuildRefusesGroupedSource(t *testing.T) {
	b := NewBuilder(paperExampleEngine(t))
	for src, reason := range map[string]string{
		"SELECT a, COUNT(*) AS n FROM t GROUP BY a": "GROUP BY",
		"SELECT a FROM t GROUP BY a":                "GROUP BY",
		"SELECT COUNT(*) AS n FROM t":               "COUNT(*)",
		"SELECT a, SUM(b) + 1 AS s FROM t":          "SUM(b) + 1",
	} {
		_, err := b.Build("g", src, []string{"a"}, []string{"a"})
		if err == nil || !strings.Contains(err.Error(), reason) {
			t.Errorf("Build over %q: error %v, want one naming %s", src, err, reason)
		}
	}
	if _, err := b.Engine.Catalog().Table("g_a"); err == nil {
		t.Error("a refused design left its c-table")
	}
}

// TestBuildRefusesPartialSource: a design encodes every row of its source,
// and the build sorts the source its own way, under which a LIMIT or OFFSET
// would keep other rows; such a source is refused, with the clause named.
func TestBuildRefusesPartialSource(t *testing.T) {
	b := NewBuilder(paperExampleEngine(t))
	for src, clause := range map[string]string{
		"SELECT a, b FROM t LIMIT 5":                     "LIMIT",
		"SELECT a, b FROM t ORDER BY b LIMIT 5 OFFSET 2": "LIMIT",
		"SELECT a, b FROM t OFFSET 2":                    "OFFSET",
	} {
		_, err := b.Build("p", src, []string{"a", "b"}, []string{"a"})
		if err == nil || !strings.Contains(err.Error(), clause) {
			t.Errorf("Build over %q: error %v, want one naming %s", src, err, clause)
		}
	}
	if _, err := b.Engine.Catalog().Table("p_a"); err == nil {
		t.Error("a refused design left its c-table")
	}
}

// TestBuildReplacesSourceOrder: the build sorts the source on the design's
// columns, whatever order the source's own ORDER BY asks for, so every
// c-table holds what the reference algorithm derives from the unordered
// source.
func TestBuildReplacesSourceOrder(t *testing.T) {
	e := paperExampleEngine(t)
	src, err := e.Query("SELECT b, c, a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTables(src.Rows, 3)
	d, err := NewBuilder(e).Build("o", "SELECT b, c, a FROM t ORDER BY a DESC, c", []string{"a", "b", "c"}, []string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for depth, ct := range d.Columns {
		checkTable(t, e, ct, want[depth])
	}
}

// TestFailedBuildLeavesNoCTable: a build that fails on its second c-table
// drops the first, in memory and on a durable engine across a reopen, so the
// design builds once the obstacle is gone.
func TestFailedBuildLeavesNoCTable(t *testing.T) {
	for _, durable := range []bool{false, true} {
		opts := engine.Options{}
		if durable {
			opts.DataDir = t.TempDir()
		}
		open := func() *engine.Engine {
			e, err := engine.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := open()
		for _, ddl := range []string{
			"CREATE TABLE t (k INT, s INT, PRIMARY KEY (k))",
			"INSERT INTO t VALUES (1, 10), (2, 20), (3, 20)",
			"CREATE TABLE d_s (x INT, PRIMARY KEY (x))",
		} {
			if _, err := e.Execute(ddl); err != nil {
				t.Fatal(err)
			}
		}
		build := func() error {
			_, err := NewBuilder(e).Build("d", "SELECT k, s FROM t", []string{"k", "s"}, []string{"k"})
			return err
		}
		if err := build(); err == nil || !strings.Contains(err.Error(), "d_s") {
			t.Fatalf("durable=%v: build over an existing d_s: error %v", durable, err)
		}
		if durable {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = open()
		}
		if _, err := e.Catalog().Table("d_k"); err == nil {
			t.Errorf("durable=%v: the failed build left d_k behind", durable)
		}
		if _, err := e.Execute("DROP TABLE d_s"); err != nil {
			t.Fatal(err)
		}
		if err := build(); err != nil {
			t.Errorf("durable=%v: rebuild: %v", durable, err)
		}
		if durable {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestJoinSourceDesign(t *testing.T) {
	// A design over a join (like the paper's D2) encodes the join result.
	e := engine.Default()
	if _, err := e.Execute("CREATE TABLE o (ok INT, od DATE, PRIMARY KEY (ok))"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("CREATE TABLE l (lk INT, ln INT, sk INT, sd DATE, PRIMARY KEY (lk, ln))"); err != nil {
		t.Fatal(err)
	}
	var oRows, lRows [][]value.Value
	base := value.MustParseDate("1995-01-01").Int()
	for i := 0; i < 50; i++ {
		oRows = append(oRows, []value.Value{value.NewInt(int64(i)), value.NewDate(base + int64(i%10))})
		for j := 0; j < 3; j++ {
			lRows = append(lRows, []value.Value{
				value.NewInt(int64(i)), value.NewInt(int64(j)),
				value.NewInt(int64((i + j) % 7)), value.NewDate(base + int64(i%10) + int64(j)),
			})
		}
	}
	if err := e.BulkLoad("o", oRows); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad("l", lRows); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(e)
	d, err := b.Build("d2", "SELECT od, sk, sd FROM l, o WHERE lk = ok",
		[]string{"od", "sk", "sd"}, []string{"od", "sk"})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows != 150 {
		t.Fatalf("design rows = %d, want 150", d.NumRows)
	}
	if err := b.Verify(d); err != nil {
		t.Error(err)
	}
	// The leading column compresses to at most 10 runs (10 distinct dates).
	od, _ := d.Column("od")
	if od.Runs > 10 {
		t.Errorf("od runs = %d, want <= 10", od.Runs)
	}
	// COUNT(*) over the design equals the source row count.
	sumC, err := e.Query("SELECT SUM(c) FROM " + od.Table)
	if err != nil {
		t.Fatal(err)
	}
	if sumC.Rows[0][0].Int() != 150 {
		t.Errorf("sum of run lengths = %v, want 150", sumC.Rows[0][0])
	}
	if TableName("D2", "OD") != "d2_od" {
		t.Errorf("TableName = %q", TableName("D2", "OD"))
	}
}

// TestCompressedCTableExecution: rewritten c-table queries (band joins,
// run-length aggregation) return identical results from the batch engine,
// whose scans emit compressed vectors, and the row-at-a-time engine, and the
// builder records the encoded column kinds.
func TestCompressedCTableExecution(t *testing.T) {
	build := func(row bool) (*engine.Engine, *Design) {
		e := engine.New(engine.Options{DisableVectorized: row})
		if _, err := e.Execute("CREATE TABLE t (a INT, b INT, c INT, PRIMARY KEY (a, b, c))"); err != nil {
			t.Fatal(err)
		}
		var load [][]value.Value
		for i := 0; i < 600; i++ {
			load = append(load, []value.Value{
				value.NewInt(int64(i / 60)),
				value.NewInt(int64(i / 6 % 10)),
				value.NewInt(int64(i % 6)),
			})
		}
		if err := e.BulkLoad("t", load); err != nil {
			t.Fatal(err)
		}
		d, err := NewBuilder(e).Build("cd", "SELECT a, b, c FROM t", []string{"a", "b", "c"}, []string{"a", "b", "c"})
		if err != nil {
			t.Fatal(err)
		}
		return e, d
	}
	compressed, d := build(false)
	row, _ := build(true)
	ta, _ := d.Column("a")
	tb, _ := d.Column("b")
	queries := []string{
		// Band join driven by an equality on the leading column's v index —
		// the range-collapse shape where v arrives as a Const vector.
		"SELECT T1.v, SUM(T1.c) FROM " + ta.Table + " T0, " + tb.Table + " T1 " +
			"WHERE T0.v = 3 AND T1.f BETWEEN T0.f AND T0.f + T0.c - 1 GROUP BY T1.v",
		// Range predicate on v: qualifying runs arrive as RLE vectors.
		"SELECT v, SUM(c) FROM " + tb.Table + " WHERE v >= 5 GROUP BY v",
		// Full scan in f order with run-length aggregation.
		"SELECT v, SUM(c) FROM " + ta.Table + " GROUP BY v",
	}
	for _, q := range queries {
		cres, err := compressed.Query(q)
		if err != nil {
			t.Fatalf("compressed %q: %v", q, err)
		}
		rres, err := row.Query(q)
		if err != nil {
			t.Fatalf("row %q: %v", q, err)
		}
		if len(cres.Rows) == 0 {
			t.Fatalf("%q returned no rows", q)
		}
		if len(cres.Rows) != len(rres.Rows) {
			t.Fatalf("%q: %d rows compressed, %d row-at-a-time", q, len(cres.Rows), len(rres.Rows))
		}
		for i := range cres.Rows {
			for j := range cres.Rows[i] {
				cv, rv := cres.Rows[i][j], rres.Rows[i][j]
				if cv.Kind != rv.Kind || value.Compare(cv, rv) != 0 {
					t.Errorf("%q row %d col %d: %v vs %v", q, i, j, cv, rv)
				}
			}
		}
	}
}
