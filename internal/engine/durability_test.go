package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/btree"
	"oldelephant/internal/catalog"
	"oldelephant/internal/sql"
	"oldelephant/internal/storage"
	"oldelephant/internal/storage/faultfs"
	"oldelephant/internal/value"
)

func openDurable(t *testing.T, fs *faultfs.FS) *Engine {
	t.Helper()
	e, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return e
}

func execAll(t *testing.T, e *Engine, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := e.Execute(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func queryInts(t *testing.T, e *Engine, q string) []int64 {
	t.Helper()
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].Int()
	}
	return out
}

// viewDef renders a view's whole definition: its query as SQL and its three
// label lists.
func viewDef(t *testing.T, e *Engine, name string) string {
	t.Helper()
	v, ok := e.View(name)
	if !ok {
		t.Fatalf("view %s is not defined", name)
	}
	return fmt.Sprintf("%s | group %q | agg %q | aggregates %q", v.Query.String(), v.GroupColumns, v.AggColumns, v.Aggregates)
}

func TestDurableRoundTrip(t *testing.T) {
	fs := faultfs.New(1)
	e := openDurable(t, fs)
	execAll(t, e,
		"CREATE TABLE orders (id INT, cust INT, ref INT, total FLOAT, note VARCHAR, PRIMARY KEY (id))",
		"CREATE INDEX idx_ref ON orders (ref) INCLUDE (total)",
		"CREATE TABLE tags (id INT, ref INT, PRIMARY KEY (id))",
		"CREATE INDEX idx_tag_ref ON tags (ref)",
	)
	// Notes of about 400 bytes spread orders over a hundred-odd leaves, so an
	// index seek costs less than a scan; tags stays a few pages, where the
	// scan wins.
	pad := strings.Repeat("n", 400)
	for i := 0; i < 2000; i++ {
		execAll(t, e, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, %d.5, 'note-%d-%s')", i, i%10, 1000+i, i, i, pad))
	}
	var tags []string
	for i := 0; i < 1000; i++ {
		tags = append(tags, fmt.Sprintf("(%d, %d)", i, 1000+i))
	}
	execAll(t, e, "INSERT INTO tags VALUES "+strings.Join(tags, ", "))
	execAll(t, e, "CREATE MATERIALIZED VIEW cust_totals AS SELECT cust, SUM(total) AS sum_total FROM orders GROUP BY cust")
	// The whole view definition survives a reopen that replays the log (no
	// checkpoint ran since the view was created) and a clean one.
	def := viewDef(t, e, "cust_totals")
	if want := `group ["cust"] | agg ["sum_total"] | aggregates ["SUM(TOTAL)"]`; !strings.HasSuffix(def, want) {
		t.Fatalf("view definition %s, want labels %s", def, want)
	}
	crashed := fs.Clone()
	crashed.Crash()
	replayed := openDurable(t, crashed.Recovered())
	if got := viewDef(t, replayed, "cust_totals"); got != def {
		t.Errorf("view after log replay: %s, want %s", got, def)
	}
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: schema, rows, the secondary index and the view all survive.
	e2 := openDurable(t, fs)
	defer e2.Close()
	ids := queryInts(t, e2, "SELECT id FROM orders ORDER BY id")
	if len(ids) != 2000 || ids[0] != 0 || ids[1999] != 1999 {
		t.Fatalf("recovered %d rows, first=%v", len(ids), ids[:min(3, len(ids))])
	}
	// The secondary index answers a selective query (and is chosen: plan sanity).
	plan, err := e2.Explain("SELECT total FROM orders WHERE ref = 1003")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "idx_ref") {
		t.Errorf("recovered index not used in plan:\n%s", plan)
	}
	got := queryInts(t, e2, "SELECT id FROM orders WHERE ref = 1003")
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("index query returned %v, want [3]", got)
	}
	if plan, err := e2.Explain("SELECT id FROM tags WHERE ref = 1003"); err != nil || !strings.Contains(plan, "SeqScan") {
		t.Errorf("small recovered table not scanned (%v):\n%s", err, plan)
	}
	if got := queryInts(t, e2, "SELECT id FROM tags WHERE ref = 1003"); len(got) != 1 || got[0] != 3 {
		t.Errorf("tags query returned %v, want [3]", got)
	}
	// The materialized view definition and its backing rows survive.
	if got := viewDef(t, e2, "cust_totals"); got != def {
		t.Errorf("view after reopen: %s, want %s", got, def)
	}
	vrows := queryInts(t, e2, "SELECT cust FROM cust_totals ORDER BY cust")
	if len(vrows) != 10 {
		t.Errorf("view table has %d groups, want 10", len(vrows))
	}
	// Writes after recovery work and persist again.
	execAll(t, e2, "INSERT INTO orders VALUES (5000, 1, 15000, 1.0, 'late')")
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := openDurable(t, fs)
	defer e3.Close()
	if n := len(queryInts(t, e3, "SELECT id FROM orders")); n != 2001 {
		t.Errorf("%d rows after second recovery, want 2001", n)
	}
}

// TestDurableFsyncFailureRollsBack: an injected fsync failure fails only the
// statement in flight; the engine stays consistent, keeps the views defined
// before it whole, and serves later writes.
func TestDurableFsyncFailureRollsBack(t *testing.T) {
	fs := faultfs.New(2)
	e := openDurable(t, fs)
	execAll(t, e,
		"CREATE TABLE t (id INT, PRIMARY KEY (id))",
		"INSERT INTO t VALUES (1)",
		"CREATE MATERIALIZED VIEW t_count AS SELECT id, COUNT(*) AS n FROM t GROUP BY id",
	)
	def := viewDef(t, e, "t_count")
	fs.FailNextSyncs(1)
	if _, err := e.Execute("INSERT INTO t VALUES (2)"); err == nil {
		t.Fatal("INSERT during fsync failure should error")
	}
	// The failed statement is invisible; the earlier ones are intact.
	if got := queryInts(t, e, "SELECT id FROM t ORDER BY id"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after failed commit: %v, want [1]", got)
	}
	if got := viewDef(t, e, "t_count"); got != def {
		t.Errorf("view after rollback: %s, want %s", got, def)
	}
	// The engine recovers without restart.
	execAll(t, e, "INSERT INTO t VALUES (3)")
	if got := queryInts(t, e, "SELECT id FROM t ORDER BY id"); len(got) != 2 || got[1] != 3 {
		t.Fatalf("after recovery insert: %v, want [1 3]", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// And the discarded row stays gone across a restart.
	e2 := openDurable(t, fs)
	defer e2.Close()
	if got := queryInts(t, e2, "SELECT id FROM t ORDER BY id"); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("after restart: %v, want [1 3]", got)
	}
}

// TestDurableDropTableReusesPages: dropping a table frees its pages; later
// allocations reuse them (the freelist persists across restarts).
func TestDurableDropTableReusesPages(t *testing.T) {
	fs := faultfs.New(3)
	e := openDurable(t, fs)
	execAll(t, e, "CREATE TABLE big (id INT, pad VARCHAR, PRIMARY KEY (id))")
	for i := 0; i < 50; i++ {
		execAll(t, e, fmt.Sprintf("INSERT INTO big VALUES (%d, '%s')", i, strings.Repeat("x", 500)))
	}
	before := e.TotalDataPages()
	execAll(t, e, "DROP TABLE big")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, fs)
	defer e2.Close()
	execAll(t, e2, "CREATE TABLE big2 (id INT, pad VARCHAR, PRIMARY KEY (id))")
	for i := 0; i < 50; i++ {
		execAll(t, e2, fmt.Sprintf("INSERT INTO big2 VALUES (%d, '%s')", i, strings.Repeat("y", 500)))
	}
	after := e2.TotalDataPages()
	if after > before+2 {
		t.Errorf("page count grew from %d to %d; freed pages not reused", before, after)
	}
	if got := queryInts(t, e2, "SELECT id FROM big2 ORDER BY id"); len(got) != 50 {
		t.Errorf("big2 has %d rows, want 50", len(got))
	}
}

// TestDurableDiscardedGroupRestoresFreedPages: DROP TABLE frees t's pages and
// an INSERT in the same commit group reuses them. When the group's fsync
// fails, both statements roll back, newest first, and t must read back whole:
// the pages the INSERT took return with t's bytes, not the INSERT's or zeros.
// With a small pool the reused pages are read back from the data file.
func TestDurableDiscardedGroupRestoresFreedPages(t *testing.T) {
	pad := strings.Repeat("x", 500)
	for _, pool := range []int{0, 4} {
		fs := faultfs.New(6)
		e, err := Open(Options{FS: fs, BufferPoolPages: pool})
		if err != nil {
			t.Fatal(err)
		}
		execAll(t, e,
			"CREATE TABLE t (id INT, pad VARCHAR, PRIMARY KEY (id))",
			"CREATE TABLE u (id INT, pad VARCHAR, PRIMARY KEY (id))",
		)
		for i := 0; i < 50; i++ {
			execAll(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, '%s')", i, pad))
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		e.ResetBufferPool()

		// Both statements commit into the WAL's pending group; neither waits.
		// The INSERT writes twice t's bytes, so it takes every page t freed.
		var rows []string
		for i := 0; i < 100; i++ {
			rows = append(rows, fmt.Sprintf("(%d, '%s')", i, strings.Repeat("y", 500)))
		}
		var lsn int64
		for _, s := range []string{"DROP TABLE t", "INSERT INTO u VALUES " + strings.Join(rows, ", ")} {
			stmt, err := sql.Parse(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, lsn, err = e.applyMutation(stmt); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
		if n := len(e.Pager().FreeList()); n != 0 {
			t.Fatalf("pool %d: the INSERT left %d of t's pages free; it must reuse them all", pool, n)
		}
		fs.FailNextSyncs(1)
		if err := e.waitDurable(lsn); err == nil {
			t.Fatalf("pool %d: commit group survived a failed fsync", pool)
		}

		check := func(e *Engine, when string) {
			t.Helper()
			res, err := e.Query("SELECT id, pad FROM t ORDER BY id")
			if err != nil {
				t.Fatalf("pool %d, %s: %v", pool, when, err)
			}
			if len(res.Rows) != 50 {
				t.Fatalf("pool %d, %s: t has %d rows, want 50", pool, when, len(res.Rows))
			}
			for i, r := range res.Rows {
				if r[0].Int() != int64(i) || r[1].String() != pad {
					t.Fatalf("pool %d, %s: row %d of t reads back as (%v, %.8q…)", pool, when, i, r[0], r[1].String())
				}
			}
			if got := queryInts(t, e, "SELECT id FROM u"); len(got) != 0 {
				t.Fatalf("pool %d, %s: u kept %d rows of a discarded INSERT", pool, when, len(got))
			}
		}
		check(e, "after rollback")
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e = openDurable(t, fs)
		check(e, "after reopen")
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableBulkLoadPersists: the programmatic bulk-load path goes through
// the same WAL commit protocol as SQL statements.
func TestDurableBulkLoadPersists(t *testing.T) {
	fs := faultfs.New(4)
	e := openDurable(t, fs)
	execAll(t, e, "CREATE TABLE t (id INT, name VARCHAR, PRIMARY KEY (id))")
	rows := make([][]value.Value, 1000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("n-%d", i))}
	}
	// The index the load creates commits with the rows.
	if err := e.BulkLoad("t", rows, catalog.IndexDef{Name: "ix_name", Columns: []string{"name"}}); err != nil {
		t.Fatal(err)
	}
	check := func(e *Engine, when string) {
		t.Helper()
		got := queryInts(t, e, "SELECT id FROM t ORDER BY id")
		if len(got) != 1000 || got[999] != 999 {
			t.Fatalf("%s: recovered %d bulk rows", when, len(got))
		}
		tbl, err := e.Catalog().Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Secondary) != 1 || tbl.Secondary[0].Name != "ix_name" || tbl.Secondary[0].Tree().Count() != 1000 {
			t.Fatalf("%s: the index the load created did not survive: %d secondary indexes", when, len(tbl.Secondary))
		}
		rng := tbl.Secondary[0].Range([]value.Value{value.NewString("n-17")}, []value.Value{value.NewString("n-17")}, true, true)
		cur := rng.Open()
		entry, ok, err := cur.Next()
		if err != nil || !ok || entry[1].Int() != 17 {
			t.Errorf("%s: a seek on the index found %v (ok %v, err %v), want id 17", when, entry, ok, err)
		}
	}
	// A crash right after the acknowledged load recovers it from the log.
	crashed := fs.Clone()
	crashed.Crash()
	e1 := openDurable(t, crashed.Recovered())
	check(e1, "after a crash")
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openDurable(t, fs)
	defer e2.Close()
	check(e2, "after a close")
}

// TestDurableMissesAreDataFileReads: a durable engine's buffer pool reads
// its misses from the data file. After a checkpoint — and again after a
// reopen, which reads no page until one is asked for — each page read a
// serial query is charged is one read of the data file, and the pool holds
// no more than its capacity. (The queries plan serially and outside the plan
// cache, as the benchmark's counted pass does.)
func TestDurableMissesAreDataFileReads(t *testing.T) {
	const pool = 16
	fs := faultfs.CountReads(faultfs.New(5))
	open := func() *Engine {
		e, err := Open(Options{FS: fs, BufferPoolPages: pool})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return e
	}
	e := open()
	execAll(t, e,
		"CREATE TABLE orders (id INT, cust INT, note VARCHAR, PRIMARY KEY (id))",
		"CREATE INDEX idx_cust ON orders (cust)",
	)
	rows := make([][]value.Value, 3000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 40)), value.NewString(strings.Repeat("n", 60))}
	}
	if err := e.BulkLoad("orders", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT COUNT(*) FROM orders",
		"SELECT id FROM orders WHERE id BETWEEN 1200 AND 1300",
		"SELECT id FROM orders WHERE cust = 7",
	}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			e.ResetBufferPool()
			reads := fs.Reads(dataFileName)
			res, err := e.QueryWith(QueryOptions{Parallelism: 1, NoCache: true}, q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fs.Reads(dataFileName)-reads, res.Stats.IO.PageReads; got != want || want == 0 {
				t.Errorf("round %d, %s: %d data-file reads for %d charged page reads", round, q, got, want)
			}
		}
		if r := e.Pager().Resident(); r > pool {
			t.Errorf("round %d: %d pages resident in a %d-page pool", round, r, pool)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e = open(); e.Pager().Resident() != 0 {
			t.Errorf("a reopened engine holds %d pages before any query", e.Pager().Resident())
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableOldRecordLayoutRefused opens a directory whose catalog meta says
// an earlier version: version 8 (today's pages, but no leaf model after each
// tree's count, so its rest would misparse), version 7 (a clustered-or-heap flag on every table, and
// a keyless table's rows in a heap of slotted pages), version 6 (today's
// clustered pages, but a meta with no view definitions and no freelist
// either), version 5 (no fence beside each tree's
// leftmost leaf either, so its rest would misparse), version 4 (a meta with no
// leftmost leaf either), version 3 (a marker, key length and 4-byte slot on
// every record, a field count and a kind byte per payload field), version 2
// (every numeric key a 9-byte cross-kind word, 8-byte child ids) or version 1
// (uniquifier on every key, key columns repeated in the payload; also the
// first byte of the engine-state envelope that wrapped every meta before
// version 7). Their pages or metas would decode to wrong rows, or to errors,
// under the current rules, so Open must fail and name both versions rather
// than attach to them.
func TestDurableOldRecordLayoutRefused(t *testing.T) {
	for _, old := range []byte{8, 7, 6, 5, 4, 3, 2, 1} {
		fs := faultfs.New(1)
		e := openDurable(t, fs)
		execAll(t, e,
			"CREATE TABLE t (k INT, v VARCHAR, PRIMARY KEY (k))",
			"INSERT INTO t VALUES (1, 'one')",
		)
		if err := e.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// The checkpointed meta's first byte is the layout version.
		meta, ok, err := storage.ReadFileAtomic(fs, metaFileName)
		if err != nil || !ok {
			t.Fatalf("read meta: ok=%v err=%v", ok, err)
		}
		if meta[0] != 9 {
			t.Fatalf("catalog meta starts with version %d, test expects 9", meta[0])
		}
		meta[0] = old
		if err := storage.WriteFileAtomic(fs, metaFileName, meta); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("meta version %d not supported", old)
		if e, err := Open(Options{FS: fs}); err == nil {
			e.Close()
			t.Fatalf("Open attached to a version-%d directory", old)
		} else if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "version 9") {
			t.Fatalf("Open of a version-%d directory failed without naming both versions: %v", old, err)
		}
	}
}

// TestDurableFirstLeafSurvivesRollbackAndRecovery: every tree's stored
// leftmost leaf — where a scan with an open start begins, with no descent —
// stays right through a rolled-back statement that split it, a bulk load,
// crash recovery from the log and a clean reopen: a scan from it returns
// exactly what a scan from an empty start key, which descends from the root,
// returns.
func TestDurableFirstLeafSurvivesRollbackAndRecovery(t *testing.T) {
	fs := faultfs.New(5)
	e := openDurable(t, fs)
	execAll(t, e, "CREATE TABLE t (k INT, v VARCHAR, PRIMARY KEY (k))", "CREATE INDEX t_v ON t (v)")
	// insertBelow stores n rows in one statement, keys from `from` down:
	// below every stored key, so each lands in the leftmost leaf and splits
	// it, and in time the root.
	insertBelow := func(e *Engine, from, n int) error {
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			k := from - i
			fmt.Fprintf(&b, "(%d, 'v%07d-%s')", k, (k*7919)%100003, strings.Repeat("x", 60))
		}
		_, err := e.Execute(b.String())
		return err
	}
	for from := 0; from > -3000; from -= 10 {
		if err := insertBelow(e, from, 10); err != nil {
			t.Fatal(err)
		}
	}
	entries := func(it *btree.Iterator) [][2]string {
		var out [][2]string
		for it.Next() {
			out = append(out, [2]string{string(it.Key()), string(it.Value())})
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		return out
	}
	check := func(e *Engine, when string, rows int) {
		t.Helper()
		tbl, err := e.Catalog().Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if h := tbl.Clustered.Tree().Height(); h < 2 {
			t.Fatalf("%s: table tree of height %d; the test needs a split root", when, h)
		}
		for _, tbl := range e.Catalog().Tables() {
			for _, ix := range append([]*catalog.Index{tbl.Clustered}, tbl.Secondary...) {
				if ix == nil {
					continue // a heap table
				}
				tr := ix.Tree()
				descent := entries(tr.Seek([]byte{}, nil, false))
				if got := entries(tr.Seek(nil, nil, false)); !slices.Equal(got, descent) {
					t.Fatalf("%s: %s scans %d entries from its stored leftmost leaf %d, %d from a descent", when, ix.Name, len(got), tr.FirstLeaf(), len(descent))
				}
				if tbl.Name == "t" && ix == tbl.Clustered && len(descent) != rows {
					t.Fatalf("%s: table t holds %d rows, want %d", when, len(descent), rows)
				}
				if len(descent) > 0 {
					stop := []byte(descent[len(descent)/3][0])
					if got, want := entries(tr.Seek(nil, stop, true)), entries(tr.Seek([]byte{}, stop, true)); !slices.Equal(got, want) {
						t.Fatalf("%s: %s scans %d entries to a stop key from its stored leftmost leaf, %d from a descent", when, ix.Name, len(got), len(want))
					}
				}
			}
		}
	}
	check(e, "after the inserts", 3000)
	fs.FailNextSyncs(1)
	if err := insertBelow(e, -3000, 400); err == nil {
		t.Fatal("an INSERT during an fsync failure succeeded")
	}
	check(e, "after a rolled-back statement", 3000)
	execAll(t, e, "CREATE TABLE u (k INT, PRIMARY KEY (k))")
	rows := make([][]value.Value, 5000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i))}
	}
	if err := e.BulkLoad("u", rows); err != nil {
		t.Fatal(err)
	}
	if err := insertBelow(e, -3000, 10); err != nil {
		t.Fatal(err)
	}
	check(e, "after a bulk load", 3010)
	crashed := fs.Clone()
	crashed.Crash()
	e1 := openDurable(t, crashed.Recovered())
	check(e1, "after crash recovery", 3010)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openDurable(t, fs)
	defer e2.Close()
	check(e2, "after a reopen", 3010)
}
