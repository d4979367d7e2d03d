package engine

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/storage/faultfs"
	"oldelephant/internal/value"
)

func openDurable(t *testing.T, fs *faultfs.FS) *Engine {
	t.Helper()
	e, err := Open(Options{TupleOverhead: -1, FS: fs})
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

func TestDurableRoundTrip(t *testing.T) {
	fs := faultfs.New(1)
	e := openDurable(t, fs)
	execAll(t, e,
		"CREATE TABLE orders (id INT, cust INT, ref INT, total FLOAT, note VARCHAR, PRIMARY KEY (id))",
		"CREATE INDEX idx_ref ON orders (ref) INCLUDE (total)",
	)
	for i := 0; i < 2000; i++ {
		execAll(t, e, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, %d.5, 'note-%d')", i, i%10, 1000+i, i, i))
	}
	execAll(t, e, "CREATE MATERIALIZED VIEW cust_totals AS SELECT cust, SUM(total) AS sum_total FROM orders GROUP BY cust")
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
	// The materialized view definition and its backing rows survive.
	if _, ok := e2.View("cust_totals"); !ok {
		t.Fatal("view definition lost across restart")
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
// statement in flight; the engine stays consistent and serves later writes.
func TestDurableFsyncFailureRollsBack(t *testing.T) {
	fs := faultfs.New(2)
	e := openDurable(t, fs)
	execAll(t, e,
		"CREATE TABLE t (id INT, PRIMARY KEY (id))",
		"INSERT INTO t VALUES (1)",
	)
	fs.FailNextSyncs(1)
	if _, err := e.Execute("INSERT INTO t VALUES (2)"); err == nil {
		t.Fatal("INSERT during fsync failure should error")
	}
	// The failed statement is invisible; the earlier one is intact.
	if got := queryInts(t, e, "SELECT id FROM t ORDER BY id"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after failed commit: %v, want [1]", got)
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
	if err := e.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openDurable(t, fs)
	defer e2.Close()
	got := queryInts(t, e2, "SELECT id FROM t ORDER BY id")
	if len(got) != 1000 || got[999] != 999 {
		t.Fatalf("recovered %d bulk rows", len(got))
	}
}

// TestDurableOldRecordLayoutRefused opens a directory whose catalog meta says
// an earlier record layout: version 3 (a marker, key length and 4-byte slot
// on every record, a field count and a kind byte per payload field), version
// 2 (every numeric key a 9-byte cross-kind word, 8-byte child ids) or version
// 1 (uniquifier on every key, key columns repeated in the payload). Their
// pages would decode to wrong rows, or to errors, under the current layout,
// so Open must fail and name both versions rather than attach to them.
func TestDurableOldRecordLayoutRefused(t *testing.T) {
	for _, old := range []byte{3, 2, 1} {
		fs := faultfs.New(1)
		e := openDurable(t, fs)
		execAll(t, e,
			"CREATE TABLE t (k INT, v VARCHAR, PRIMARY KEY (k))",
			"INSERT INTO t VALUES (1, 'one')",
		)
		if err := e.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// The checkpointed state is stateVersion, then the length-prefixed
		// catalog meta, whose first byte is the layout version.
		state, ok, err := storage.ReadFileAtomic(fs, metaFileName)
		if err != nil || !ok {
			t.Fatalf("read meta: ok=%v err=%v", ok, err)
		}
		_, n := binary.Uvarint(state[1:])
		if state[1+n] != 4 {
			t.Fatalf("catalog meta starts with version %d, test expects 4", state[1+n])
		}
		state[1+n] = old
		if err := storage.WriteFileAtomic(fs, metaFileName, state); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("meta version %d not supported", old)
		if e, err := Open(Options{TupleOverhead: -1, FS: fs}); err == nil {
			e.Close()
			t.Fatalf("Open attached to a version-%d directory", old)
		} else if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "version 4") {
			t.Fatalf("Open of a version-%d directory failed without naming both versions: %v", old, err)
		}
	}
}
