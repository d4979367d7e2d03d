package elephant

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oldelephant/internal/value"
)

// TestOpenDirFenceSurvivesReopenAndRecovery: the leftmost leaf's fence — the
// first separator above it, which lets a seek from a key at or below it start
// at that leaf — is kept in the catalog meta. A durable table is bulk-loaded,
// then rows below every key split its leftmost leaf and lower the fence.
// After a crash (a copy of the directory taken while the database is open:
// the log holds the inserts, the data file does not) and after a clean close,
// the reopened tree has the same fence, and a cold seek at its smallest key
// reads exactly one page.
func TestOpenDirFenceSurvivesReopenAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute("CREATE TABLE t (k INT, v VARCHAR, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 80)
	rows := make([][]value.Value, 5000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewString(pad)}
	}
	if err := db.Engine.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	fence := func(db *DB) []byte {
		tbl, err := db.Catalog().Table("t")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(tbl.Clustered.Tree().Fence())
	}
	loaded := fence(db)
	for from := -1; from > -400; from -= 40 {
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for k := from; k > from-40; k-- {
			if k < from {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s')", k, pad)
		}
		if _, err := db.Execute(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	lowered := fence(db)
	if bytes.Compare(lowered, loaded) >= 0 {
		t.Fatalf("inserts below every key left the fence at %x (bulk load: %x): the leftmost leaf never split", lowered, loaded)
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct{ name, dir string }{{"crash recovery", crashDir}, {"clean reopen", dir}} {
		db, err := OpenDir(c.dir, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fence(db); !bytes.Equal(got, lowered) {
			t.Errorf("%s: fence %x, want %x", c.name, got, lowered)
		}
		tbl, err := db.Catalog().Table("t")
		if err != nil {
			t.Fatal(err)
		}
		tr := tbl.Clustered.Tree()
		first := tr.Scan()
		if !first.Next() {
			t.Fatalf("%s: table t is empty", c.name)
		}
		smallest := bytes.Clone(first.Key())
		db.Pager().ResetCache()
		before := db.Pager().Stats()
		it := tr.Seek(smallest, smallest, true)
		reads := db.Pager().Stats().Sub(before).PageReads
		if !it.Next() || !bytes.Equal(it.Key(), smallest) {
			t.Errorf("%s: a seek at the smallest key %x does not find it", c.name, smallest)
		}
		if reads != 1 || it.Start().Descended || tr.Height() < 2 {
			t.Errorf("%s: a cold seek at the smallest key read %d pages (descended %v, height %d), want 1", c.name, reads, it.Start().Descended, tr.Height())
		}
		if res, err := db.Query("SELECT COUNT(*) FROM t"); err != nil || res.Rows[0][0].Int() != 5400 {
			t.Errorf("%s: COUNT(*) = %v (%v), want 5400", c.name, res, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
