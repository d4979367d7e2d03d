package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/storage/faultfs"
)

// TestInsertRefusesUniqueDuplicate: an INSERT whose key columns a unique
// index already holds is refused with the error a bulk load or CREATE UNIQUE
// INDEX gives for the same duplicate, NULL keys counting as equal, on a keyed
// and on a keyless table. A refused INSERT, a multi-row one refused at a later
// row included, leaves the row count, the statistics and the pages as they
// were on either engine, and the durable engine reads the
// same rows after a clean reopen and after replaying its log from a crash
// image.
func TestInsertRefusesUniqueDuplicate(t *testing.T) {
	for _, key := range []string{"", ", PRIMARY KEY (id)"} {
		for _, durable := range []bool{false, true} {
			name := fmt.Sprintf("key=%q/durable=%v", key, durable)
			fs := faultfs.New(5)
			e := New(Options{})
			if durable {
				e = openDurable(t, fs)
			}
			execAll(t, e, "CREATE TABLE t (id INT, k INT, note VARCHAR(16)"+key+")", "CREATE UNIQUE INDEX t_k ON t (k)")
			var vals []string
			for i := 0; i < 500; i++ {
				vals = append(vals, fmt.Sprintf("(%d, %d, 'n%d')", i, 1000-i, i))
			}
			execAll(t, e, "INSERT INTO t VALUES "+strings.Join(vals, ", "), "INSERT INTO t VALUES (900, NULL, 'null')")
			snapshot := func() string {
				// A rollback restores the catalog, so read the table anew.
				tbl, err := e.Catalog().Table("t")
				if err != nil {
					t.Fatal(err)
				}
				s := fmt.Sprintf("rows %d, stats %d rows %d bytes, pages %d;", tbl.RowCount(), tbl.Stats.RowCount, tbl.Stats.DataBytes, e.Pager().NumPages())
				for col := range tbl.Columns {
					lo, hi := tbl.Stats.MinMax(col)
					s += fmt.Sprintf(" [%d %d %v %v]", tbl.Stats.DistinctCount(col), tbl.Stats.NullCount(col), lo, hi)
				}
				return s
			}
			before, writes := snapshot(), e.Pager().Stats().PageWrites
			for _, dup := range []string{
				"INSERT INTO t VALUES (7, 1000, 'dup')",        // the first row's k
				"INSERT INTO t VALUES (8, 501, 'dup')",         // the last row's k
				"INSERT INTO t VALUES (9, NULL, 'null again')", // NULLs are equal
				"INSERT INTO t VALUES (10, 1, 'new'), (11, 1, 'dup of new')",
			} {
				_, err := e.Execute(dup)
				if err == nil || !strings.Contains(err.Error(), `duplicate key in unique index "t_k"`) {
					t.Fatalf("%s: %s: err = %v, want the unique index to refuse it", name, dup, err)
				}
				if got := snapshot(); got != before {
					t.Errorf("%s: %s changed the table:\n  before %s\n  after  %s", name, dup, before, got)
				}
				// A statement refused at its first row writes no page; one
				// refused at a later row wrote its earlier rows and undid them.
				if got := e.Pager().Stats().PageWrites; !durable && !strings.Contains(dup, "),") && got != writes {
					t.Errorf("%s: %s wrote %d pages", name, dup, got-writes)
				}
			}
			if !durable {
				continue
			}
			execAll(t, e, "INSERT INTO t VALUES (12, 1, 'new')")
			read := func(e *Engine) []string {
				res, err := e.Query("SELECT * FROM t ORDER BY id")
				if err != nil {
					t.Fatal(err)
				}
				return renderRows(res)
			}
			want := read(e)
			if len(want) != 502 {
				t.Fatalf("%s: %d rows, want 502", name, len(want))
			}
			crashed := fs.Clone()
			crashed.Crash()
			replayed := openDurable(t, crashed.Recovered())
			if got := read(replayed); !slices.Equal(got, want) {
				t.Errorf("%s: after log replay the table reads differently", name)
			}
			if _, err := replayed.Execute("INSERT INTO t VALUES (13, 1, 'dup')"); err == nil {
				t.Errorf("%s: after log replay the unique index took a duplicate", name)
			}
			if err := replayed.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			clean := openDurable(t, fs)
			if got := read(clean); !slices.Equal(got, want) {
				t.Errorf("%s: after a clean reopen the table reads differently", name)
			}
			if _, err := clean.Execute("INSERT INTO t VALUES (13, 501, 'dup')"); err == nil {
				t.Errorf("%s: after a clean reopen the unique index took a duplicate", name)
			}
			if err := clean.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
