package elephant

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oldelephant/internal/btree"
	"oldelephant/internal/engine"
)

// TestOpenDirLeafModelsSurviveReopenAndRecovery: the leaf models a c-table
// design's bulk loads fit are kept in the catalog meta (version 9). D1 is
// built in a durable directory and its rewrites run cold; a statement that
// splits a c-table's leaf and is then refused rolls back to a tree with no
// model or a valid one, answering as before. After a crash (a copy of the
// directory taken while the database is open) and after a clean close, the
// reopened c-tables keep the same models, and each rewrite reads the same
// pages, sequential and random, as before the restart.
func TestOpenDirLeafModelsSurviveReopenAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Options{BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTPCH(0.005); err != nil {
		t.Fatal(err)
	}
	design, err := db.BuildCTableDesign("d1", "SELECT l_shipdate, l_suppkey FROM lineitem",
		[]string{"l_shipdate", "l_suppkey"}, []string{"l_shipdate", "l_suppkey"})
	if err != nil {
		t.Fatal(err)
	}
	var rewrites []string
	for _, q := range []string{
		"SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1997-06-01' GROUP BY l_shipdate",
		"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1997-06-01' GROUP BY l_suppkey",
		"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1996-03-15' GROUP BY l_suppkey",
	} {
		rw, err := NewRewriter(design).RewriteSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		rewrites = append(rewrites, rw)
	}
	// models names every c-table tree that has a leaf model.
	models := func(db *DB) map[string]btree.Model {
		out := map[string]btree.Model{}
		for _, ct := range design.Columns {
			tbl, err := db.Catalog().Table(ct.Table)
			if err != nil {
				t.Fatal(err)
			}
			for _, ix := range append(tbl.Secondary, tbl.Clustered) {
				if m := ix.Tree().Model(); m != nil {
					out[ix.Name] = *m
				}
			}
		}
		return out
	}
	// cold runs every rewrite cold and serial: its rows and its page reads.
	cold := func(db *DB) []string {
		var out []string
		for _, q := range rewrites {
			db.ResetBufferPool()
			res, err := db.Engine.QueryWith(engine.QueryOptions{Parallelism: 1, NoCache: true}, q)
			if err != nil {
				t.Fatal(err)
			}
			io := res.Stats.IO
			out = append(out, fmt.Sprintf("%v | reads %d, seq %d, rand %d", res.Rows, io.PageReads, io.SeqReads, io.RandReads))
		}
		return out
	}
	loaded, before := models(db), cold(db)
	suppkey := design.Columns[1].Table
	if _, ok := loaded[suppkey+"_clustered"]; !ok || len(loaded) < 2 {
		t.Fatalf("D1's bulk-loaded c-tables kept the leaf models %v; want one on %s's clustered tree", loaded, suppkey)
	}

	// 400 rows at one f split a leaf of the clustered tree; the last row of
	// the statement, one value short, is refused, so the statement rolls
	// back whole.
	row := "(500, %d, 1), "
	if design.Columns[1].Dense {
		row = "(500, %d), "
	}
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", suppkey)
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, row, i)
	}
	b.WriteString("(1)")
	if _, err := db.Execute(b.String()); err == nil {
		t.Fatal("an INSERT row one value short was accepted")
	}
	// Accepted, the 400 rows would have dropped the table's models with the
	// split; refused, the statement leaves none or valid ones.
	for name, m := range models(db) {
		if !m.Valid() {
			t.Errorf("after the rollback %s holds an invalid leaf model %+v", name, m)
		}
	}
	if got := cold(db); strings.Join(got, "\n") != strings.Join(before, "\n") {
		t.Errorf("after the rollback the rewrites read\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(before, "\n"))
	}

	crashDir := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	kept := models(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, dir string }{{"crash recovery", crashDir}, {"clean reopen", dir}} {
		db, err := OpenDir(c.dir, Options{BufferPoolPages: 64})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := models(db); fmt.Sprint(got) != fmt.Sprint(kept) {
			t.Errorf("%s: leaf models %v, want %v", c.name, got, kept)
		}
		if got := cold(db); strings.Join(got, "\n") != strings.Join(before, "\n") {
			t.Errorf("%s: the rewrites read\n%s\nwant\n%s", c.name, strings.Join(got, "\n"), strings.Join(before, "\n"))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
