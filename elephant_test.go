package elephant

import (
	"strings"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/tpch"
	"oldelephant/internal/value"
)

// TestPublicAPIEndToEnd walks the public facade the way the README does:
// open a database, load TPC-H, run a query under all three row-store
// strategies, and check they agree.
func TestPublicAPIEndToEnd(t *testing.T) {
	db := Open(Options{})
	if err := db.LoadTPCH(0.001); err != nil {
		t.Fatal(err)
	}
	q3 := "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-06-01' GROUP BY l_suppkey"

	// Plain row store.
	row, err := db.Query(q3)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Columns) != 2 {
		t.Fatalf("columns = %v", row.Columns)
	}

	// Row(MV): a generalized materialized view answers the query.
	if err := db.CreateMaterializedView("mv23",
		"SELECT l_shipdate, l_suppkey, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipdate, l_suppkey"); err != nil {
		t.Fatal(err)
	}
	mv, usedView, err := db.QueryUsingViews(q3)
	if err != nil {
		t.Fatal(err)
	}
	if !usedView {
		t.Fatal("expected the view to answer Q3")
	}

	// Row(Col): c-tables plus rewriting.
	design, err := db.BuildCTableDesign("d1", "SELECT l_shipdate, l_suppkey FROM lineitem",
		[]string{"l_shipdate", "l_suppkey"}, []string{"l_shipdate", "l_suppkey"})
	if err != nil {
		t.Fatal(err)
	}
	rw := NewRewriter(design)
	rewritten, err := rw.RewriteSQL(q3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rewritten, "d1_l_suppkey") {
		t.Errorf("rewriting does not reference the c-table: %s", rewritten)
	}
	col, err := db.Query(rewritten)
	if err != nil {
		t.Fatal(err)
	}

	if len(row.Rows) != len(mv.Rows) || len(row.Rows) != len(col.Rows) {
		t.Fatalf("strategies disagree: Row=%d Row(MV)=%d Row(Col)=%d", len(row.Rows), len(mv.Rows), len(col.Rows))
	}

	// ColOpt: the compressed projection is a fraction of the row footprint.
	proj, err := db.BuildColumnProjection("p1", "SELECT l_shipdate, l_suppkey FROM lineitem",
		[]string{"l_shipdate", "l_suppkey"}, []value.Kind{value.KindDate, value.KindInt},
		[]string{"l_shipdate", "l_suppkey"})
	if err != nil {
		t.Fatal(err)
	}
	li, err := db.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if pages, err := li.DataPages(); err != nil || proj.TotalPages() >= int64(pages) {
		t.Errorf("compressed projection (%d pages) should be smaller than the table (%d pages, err %v)",
			proj.TotalPages(), pages, err)
	}
}

// TestOpenDirDurableRoundTrip exercises the durable public API on a real
// directory: create, load, close, reopen, verify, and check that the
// materialized-view manager still sees recovered view definitions.
func TestOpenDirDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"CREATE TABLE parts (id INT, kind INT, price FLOAT, PRIMARY KEY (id))",
		"INSERT INTO parts VALUES (1, 0, 9.5), (2, 1, 3.25), (3, 0, 7.0)",
	} {
		if _, err := db.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if err := db.CreateMaterializedView("by_kind", "SELECT kind, COUNT(*) AS n FROM parts GROUP BY kind"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	res, err := db2.Query("SELECT id FROM parts ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[2][0].Int() != 3 {
		t.Fatalf("recovered %d rows", len(res.Rows))
	}
	// The recovered view definition still answers queries through the
	// materialized-view manager.
	vres, used, err := db2.QueryUsingViews("SELECT kind, COUNT(*) FROM parts GROUP BY kind")
	if err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Error("recovered materialized view not used for a matching query")
	}
	if len(vres.Rows) != 2 {
		t.Errorf("view query returned %d groups, want 2", len(vres.Rows))
	}
}

// TestEngineAndPublicOptionsPackAlike: the engine's zero Options and the
// public zero Options pack records with the same 9-byte row header, so the
// same table loads into the same number of pages through either.
func TestEngineAndPublicOptionsPackAlike(t *testing.T) {
	eng := engine.New(engine.Options{})
	if err := tpch.NewGenerator(0.001).LoadCore(eng); err != nil {
		t.Fatal(err)
	}
	db := Open(Options{})
	if err := db.LoadTPCH(0.001); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.TotalDataPages(), db.TotalDataPages(); got != want {
		t.Errorf("engine.Options{} loads TPC-H into %d pages, elephant.Options{} into %d", got, want)
	}
}
