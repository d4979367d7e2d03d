package wal_test

// Crash-recovery harness: run a concurrent insert workload over a durable
// engine on the fault-injecting filesystem, kill the filesystem at every
// mutating-operation boundary, recover (the kernel's page cache flushes an
// arbitrary subset of unsynced writes), reopen, and verify the durability
// contract:
//
//   - every acknowledged statement is fully present;
//   - every statement is atomic — a multi-row INSERT is all-there or
//     all-absent, never partial;
//   - every surviving row is intact (payload matches its key);
//   - the post-recovery data file passes every page checksum.
//
// The tests live in package wal_test (not wal) so they can drive the whole
// engine; the CI crash job selects them with -run Crash.

import (
	"fmt"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/storage/faultfs"
)

const (
	crashWriters    = 4
	crashStmtsPerG  = 20
	crashKillPoints = 110 // acceptance floor is 100 distinct injection points
)

// crashWorkload opens a durable engine on fs and runs the concurrent insert
// workload: each statement inserts two rows (ids 2s and 2s+1 for statement
// s), so statement atomicity is observable. It returns the statements that
// were acknowledged (their WAL records reported durable). Failures are
// expected — the filesystem may die at any point.
func crashWorkload(fs *faultfs.FS) (acked map[int64]bool, tableAcked bool) {
	acked = make(map[int64]bool)
	eng, err := engine.Open(engine.Options{FS: fs})
	if err != nil {
		return acked, false
	}
	defer func() { _ = eng.Close() }()
	if _, err := eng.Execute("CREATE TABLE kv (id INT, payload VARCHAR, PRIMARY KEY (id))"); err != nil {
		return acked, false
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < crashWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < crashStmtsPerG; i++ {
				s := int64(g*crashStmtsPerG + i)
				a, b := 2*s, 2*s+1
				stmt := fmt.Sprintf("INSERT INTO kv VALUES (%d, 'r-%d'), (%d, 'r-%d')", a, a, b, b)
				if _, err := eng.Execute(stmt); err != nil {
					return // dead filesystem or discarded commit: stop writing
				}
				mu.Lock()
				acked[s] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return acked, true
}

// readRows returns every (id, payload) in the recovered table, or nil when
// the table does not exist (a crash before CREATE TABLE became durable).
func readRows(t *testing.T, eng *engine.Engine) map[int64]string {
	t.Helper()
	res, err := eng.Query("SELECT id, payload FROM kv")
	if err != nil {
		if _, terr := eng.Catalog().Table("kv"); terr != nil {
			return nil // table legitimately absent
		}
		t.Fatalf("post-recovery scan failed: %v", err)
	}
	rows := make(map[int64]string, len(res.Rows))
	for _, r := range res.Rows {
		rows[r[0].Int()] = r[1].S
	}
	return rows
}

// verifyRecovered checks the durability contract for one recovered image.
func verifyRecovered(t *testing.T, kill int64, rfs *faultfs.FS, acked map[int64]bool, tableAcked bool) map[int64]string {
	t.Helper()
	eng, err := engine.Open(engine.Options{FS: rfs})
	if err != nil {
		t.Fatalf("kill@%d: recovery failed: %v", kill, err)
	}
	defer func() {
		if err := eng.Close(); err != nil {
			t.Fatalf("kill@%d: close after recovery: %v", kill, err)
		}
	}()
	rows := readRows(t, eng)
	if rows == nil {
		if tableAcked {
			t.Fatalf("kill@%d: CREATE TABLE was acknowledged but the table is gone", kill)
		}
		if len(acked) > 0 {
			t.Fatalf("kill@%d: inserts acked without the table surviving", kill)
		}
		return nil
	}
	// Every acknowledged statement is fully present.
	for s := range acked {
		if _, ok := rows[2*s]; !ok {
			t.Fatalf("kill@%d: acked statement %d lost row %d", kill, s, 2*s)
		}
		if _, ok := rows[2*s+1]; !ok {
			t.Fatalf("kill@%d: acked statement %d lost row %d", kill, s, 2*s+1)
		}
	}
	// Every surviving row is intact and its statement is atomic.
	for id, payload := range rows {
		if want := fmt.Sprintf("r-%d", id); payload != want {
			t.Fatalf("kill@%d: row %d has payload %q, want %q", kill, id, payload, want)
		}
		if _, ok := rows[id^1]; !ok {
			t.Fatalf("kill@%d: statement %d is half-present (row %d without %d)", kill, id/2, id, id^1)
		}
	}
	// The recovery checkpoint rewrote the data file; every checksum holds.
	corrupt, err := eng.Pager().VerifyChecksums(rfs, "elephant.data")
	if err != nil {
		t.Fatalf("kill@%d: checksum verification: %v", kill, err)
	}
	if len(corrupt) > 0 {
		t.Fatalf("kill@%d: pages %v fail their checksums after recovery", kill, corrupt)
	}
	return rows
}

// TestCrashRecoveryMatrix is the randomized kill-mid-commit test: it first
// measures the workload's total mutating-op count, then re-runs it killing
// the filesystem at >= 100 distinct operation boundaries spread across the
// whole run (each with a different torn-write/page-cache-loss randomization)
// and verifies the durability contract after every recovery.
func TestCrashRecoveryMatrix(t *testing.T) {
	probe := faultfs.New(0)
	crashWorkload(probe)
	total := probe.OpCount()
	if total < crashKillPoints {
		t.Fatalf("workload performs only %d mutating ops; need >= %d kill points", total, crashKillPoints)
	}
	step := total / crashKillPoints
	if step < 1 {
		step = 1
	}
	points := 0
	for kill := int64(1); kill <= total; kill += step {
		points++
		fs := faultfs.New(kill) // distinct torn-write randomization per point
		fs.SetKillAt(kill)
		acked, tableAcked := crashWorkload(fs)
		rfs := fs.Recovered()
		verifyRecovered(t, kill, rfs, acked, tableAcked)
	}
	if points < 100 {
		t.Fatalf("only %d injection points exercised, want >= 100", points)
	}
	t.Logf("%d injection points across %d mutating ops", points, total)
}

// TestCrashRecoveryIdempotence: recovering the same crash image twice yields
// identical contents (page-image redo is idempotent), and the recovered
// database is row-for-row equal to an in-memory oracle engine replaying the
// statements the recovered image contains.
func TestCrashRecoveryIdempotence(t *testing.T) {
	fs := faultfs.New(42)
	fs.SetKillAt(90) // mid-workload, after the table exists
	acked, tableAcked := crashWorkload(fs)
	crash := fs.Recovered()
	twin := crash.Clone()

	rows1 := verifyRecovered(t, 90, crash, acked, tableAcked)
	rows2 := verifyRecovered(t, 90, twin, acked, tableAcked)
	if len(rows1) != len(rows2) {
		t.Fatalf("two recoveries of one crash image differ: %d vs %d rows", len(rows1), len(rows2))
	}
	for id, payload := range rows1 {
		if rows2[id] != payload {
			t.Fatalf("row %d differs between recoveries: %q vs %q", id, payload, rows2[id])
		}
	}
	if len(rows1) == 0 {
		t.Skip("crash image recovered to an empty database; nothing to cross-check")
	}

	// Differential oracle: an in-memory row-at-a-time engine fed the same
	// statements must serve exactly the same table.
	oracle := engine.New(engine.Options{DisableVectorized: true})
	if _, err := oracle.Execute("CREATE TABLE kv (id INT, payload VARCHAR, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	for id, payload := range rows1 {
		if id%2 != 0 {
			continue // statements insert (2s, 2s+1); replay per statement
		}
		stmt := fmt.Sprintf("INSERT INTO kv VALUES (%d, '%s'), (%d, 'r-%d')", id, payload, id+1, id+1)
		if _, err := oracle.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	// Re-open the crash image once more and diff the full ordered result sets.
	eng, err := engine.Open(engine.Options{FS: twin})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	got, err := eng.Query("SELECT id, payload FROM kv ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Query("SELECT id, payload FROM kv ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("recovered engine has %d rows, oracle %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i][0].Int() != want.Rows[i][0].Int() || got.Rows[i][1].S != want.Rows[i][1].S {
			t.Fatalf("row %d: recovered (%v, %q) vs oracle (%v, %q)", i,
				got.Rows[i][0], got.Rows[i][1].S, want.Rows[i][0], want.Rows[i][1].S)
		}
	}
}
