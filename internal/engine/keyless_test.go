package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/storage/faultfs"
	"oldelephant/internal/value"
)

// renderRows renders a result's rows in order, one line each.
func renderRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = fmt.Sprint(row)
	}
	return out
}

// TestAppendsFillLeaves: 20,000 single-row INSERTs in key order — into a
// keyless table, whose every row is an append, and into a BIGINT-keyed one —
// leave at most 1.1 times the leaves a bulk load of the same rows makes: an
// insert after the last entry of the rightmost leaf splits there, so the
// leaves it leaves behind are full rather than half full. The keyless table
// scans back in insertion order through SELECT *, serially and as two
// workers' morsels.
func TestAppendsFillLeaves(t *testing.T) {
	const n = 20000
	rows := make([][]value.Value, n)
	var want []string
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(n - i)), value.NewString(fmt.Sprintf("v%05d", i))}
		want = append(want, fmt.Sprint(rows[i]))
	}
	for _, key := range []string{"", ", PRIMARY KEY (id)"} {
		ddl := "CREATE TABLE t (id BIGINT, v VARCHAR(16)" + key + ")"
		inserted, loaded := New(Options{}), New(Options{})
		mustExec(t, inserted, ddl)
		mustExec(t, loaded, ddl)
		// Ascending keys for the keyed table; the keyless one takes the
		// same rows in descending id order, which its insertion order keeps.
		for i := range rows {
			r := rows[i]
			if key != "" {
				r = rows[n-1-i]
			}
			mustExec(t, inserted, fmt.Sprintf("INSERT INTO t VALUES (%d, '%s')", r[0].Int(), r[1].String()))
		}
		order := rows
		if key != "" {
			order = slices.Clone(rows)
			slices.Reverse(order)
		}
		if err := loaded.BulkLoad("t", order); err != nil {
			t.Fatal(err)
		}
		leaves := func(e *Engine) int {
			tbl, err := e.Catalog().Table("t")
			if err != nil {
				t.Fatal(err)
			}
			n, err := tbl.DataPages()
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		got, bulk := leaves(inserted), leaves(loaded)
		t.Logf("key %q: %d leaves after %d INSERTs, %d after a bulk load", key, got, n, bulk)
		if float64(got) > 1.1*float64(bulk) {
			t.Errorf("key %q: %d INSERTs in key order left %d leaves, more than 1.1 × a bulk load's %d", key, n, got, bulk)
		}
		if key != "" {
			continue
		}
		for _, workers := range []int{1, 2} {
			res, err := inserted.QueryWith(QueryOptions{Parallelism: workers}, "SELECT * FROM t")
			if err != nil {
				t.Fatal(err)
			}
			if workers == 2 && !strings.Contains(res.Plan, "[parallel 2]") {
				t.Errorf("P=2: the scan did not go parallel:\n%s", res.Plan)
			}
			if got := renderRows(res); !slices.Equal(got, want) {
				t.Errorf("P=%d: SELECT * returns %d rows that differ from the %d inserted, in order", workers, len(got), len(want))
			}
		}
	}
}

// TestKeylessUniqueIndexSurvivesReopen: a keyless table with a unique
// secondary index — whose entries locate rows by their uniquifier — reads the
// same rows, whole and through the index, after a reopen that replays the
// log from a crash image and after a clean reopen.
func TestKeylessUniqueIndexSurvivesReopen(t *testing.T) {
	fs := faultfs.New(3)
	e := openDurable(t, fs)
	execAll(t, e, "CREATE TABLE t (k INT, note VARCHAR)", "CREATE UNIQUE INDEX t_k ON t (k)")
	// Notes of about 400 bytes spread the table over two hundred-odd leaves, so
	// a point query seeks the index and looks its row up by locator.
	pad := strings.Repeat("n", 400)
	for i := 0; i < 3000; i += 100 {
		var vals []string
		for j := i; j < i+100; j++ {
			vals = append(vals, fmt.Sprintf("(%d, 'note-%d-%s')", (j*7919)%3000, j, pad))
		}
		execAll(t, e, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
	}
	read := func(e *Engine, when string) []string {
		t.Helper()
		all, err := e.Query("SELECT * FROM t")
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		out := renderRows(all)
		for _, k := range []int{0, 7, 2999} {
			q := fmt.Sprintf("SELECT note FROM t WHERE k = %d", k)
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, q, err)
			}
			if !strings.Contains(res.Plan, "t_k") || len(res.Rows) != 1 {
				t.Fatalf("%s: %s: %d rows from %s, want one through t_k", when, q, len(res.Rows), res.Plan)
			}
			out = append(out, renderRows(res)...)
		}
		return out
	}
	want := read(e, "before close")
	if len(want) != 3003 {
		t.Fatalf("read %d lines, want 3,000 rows and 3 lookups", len(want))
	}
	crashed := fs.Clone()
	crashed.Crash()
	replayed := openDurable(t, crashed.Recovered())
	if got := read(replayed, "after log replay"); !slices.Equal(got, want) {
		t.Error("after log replay the table reads differently")
	}
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	clean := openDurable(t, fs)
	defer clean.Close()
	if got := read(clean, "after a clean reopen"); !slices.Equal(got, want) {
		t.Error("after a clean reopen the table reads differently")
	}
}
