package server

import (
	"strings"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/storage/faultfs"
)

// TestServerDegradesGracefullyOnFsyncFailure: an injected fsync failure
// mid-INSERT fails exactly that statement. Other sessions keep serving
// queries throughout, the metrics record the failure, and the engine accepts
// writes again once the device recovers — no restart, no poisoned state.
func TestServerDegradesGracefullyOnFsyncFailure(t *testing.T) {
	fs := faultfs.New(7)
	eng, err := engine.Open(engine.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{})
	defer srv.Close()

	writer, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	for _, stmt := range []string{
		"CREATE TABLE accounts (id INT, balance INT, PRIMARY KEY (id))",
		"INSERT INTO accounts VALUES (1, 100), (2, 200)",
	} {
		if _, err := writer.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	// Readers hammer the table across the failure window; every query must
	// succeed and see consistent data (either 2 or — later — 3 rows, never a
	// torn statement).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := reader.Query("SELECT COUNT(*) FROM accounts")
			if err != nil {
				t.Errorf("concurrent SELECT failed during degraded write: %v", err)
				return
			}
			if n := res.Rows[0][0].Int(); n != 2 && n != 3 {
				t.Errorf("reader saw %d rows, want 2 or 3", n)
				return
			}
		}
	}()

	before := srv.Metrics().Errors
	fs.FailNextSyncs(1)
	if _, err := writer.Execute("INSERT INTO accounts VALUES (3, 300)"); err == nil {
		t.Fatal("INSERT during injected fsync failure should error")
	}

	// The failed statement is invisible and only that statement failed.
	res, err := writer.Query("SELECT COUNT(*) FROM accounts")
	if err != nil {
		t.Fatalf("SELECT after failed INSERT: %v", err)
	}
	if n := res.Rows[0][0].Int(); n != 2 {
		t.Fatalf("failed INSERT left %d rows, want 2", n)
	}
	if got := srv.Metrics().Errors; got != before+1 {
		t.Errorf("metrics.Errors = %d, want %d", got, before+1)
	}
	// The failed fsync discarded one pending commit batch.
	var expo strings.Builder
	if err := srv.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), "\nelephant_wal_aborts_total 1\n") {
		t.Errorf("exposition lacks elephant_wal_aborts_total 1:\n%s", expo.String())
	}

	// The device recovers; the next write goes through and is durable.
	if _, err := writer.Execute("INSERT INTO accounts VALUES (3, 300)"); err != nil {
		t.Fatalf("INSERT after device recovery: %v", err)
	}
	close(stop)
	wg.Wait()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := engine.Open(engine.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	res2, err := e2.Query("SELECT id FROM accounts ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 3 || res2.Rows[2][0].Int() != 3 {
		t.Fatalf("restart sees %d rows, want [1 2 3]", len(res2.Rows))
	}
}
