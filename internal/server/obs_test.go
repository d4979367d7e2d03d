package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsSnapshotObservability pins the snapshot fields the PR's
// observability layer added: uptime, in-flight, ordered latency percentiles,
// workload totals, slow-log enrichment and the runtime-settable slow threshold.
func TestMetricsSnapshotObservability(t *testing.T) {
	srv := newTestServer(t, 1000, Options{SlowQueryThreshold: time.Nanosecond})
	defer srv.Close()
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Execute("SELECT grp, SUM(amount) FROM items GROUP BY grp"); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics()
	if snap.Queries != 1 {
		t.Fatalf("queries=%d, want 1", snap.Queries)
	}
	// One statement: every latency figure is that statement's, up to the
	// histogram's interpolation below the exact maximum.
	if snap.P50 <= 0 || snap.P50 > snap.P95 || snap.P95 > snap.P99 || snap.P99 > snap.Max || snap.Mean != snap.Max {
		t.Fatalf("latency p50=%v p95=%v p99=%v max=%v mean=%v", snap.P50, snap.P95, snap.P99, snap.Max, snap.Mean)
	}
	if snap.Uptime <= 0 {
		t.Fatalf("uptime = %v", snap.Uptime)
	}
	if snap.WorkloadRecords != 1 {
		t.Fatalf("workload records = %d, want 1", snap.WorkloadRecords)
	}
	if snap.SlowThreshold != time.Nanosecond {
		t.Fatalf("slow threshold = %v", snap.SlowThreshold)
	}
	// Every query is slower than 1ns, so the slow log has the enriched entry.
	if len(snap.Slow) != 1 {
		t.Fatalf("slow log has %d entries, want 1", len(snap.Slow))
	}
	if s := snap.Slow[0]; s.Plan == "" || !strings.Contains(s.Plan, "Scan") {
		t.Fatalf("slow entry lacks plan text: %+v", s)
	}
	// Raising the threshold at runtime stops slow logging.
	srv.SetSlowThreshold(time.Hour)
	if got := srv.SlowThreshold(); got != time.Hour {
		t.Fatalf("SlowThreshold = %v after set", got)
	}
	if _, err := sess.Execute("SELECT COUNT(*) FROM items"); err != nil {
		t.Fatal(err)
	}
	if snap = srv.Metrics(); len(snap.Slow) != 1 {
		t.Fatalf("slow log grew past threshold: %d entries", len(snap.Slow))
	}
}

// TestMetricsHTTPEndpoints drives the observability HTTP surface: the
// Prometheus exposition must carry the engine-wide series, and /workload must
// return the recent records as JSON.
func TestMetricsHTTPEndpoints(t *testing.T) {
	srv := newTestServer(t, 500, Options{})
	defer srv.Close()
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 3; i++ {
		if _, err := sess.Execute("SELECT COUNT(*) FROM items WHERE id < 250"); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.HTTPHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, series := range []string{
		"elephant_queries_total 3",
		"elephant_query_duration_seconds_count 3",
		"elephant_plan_cache_hits_total",
		"elephant_plan_cache_misses_total",
		"elephant_wal_commits_total",
		"elephant_pager_cache_hits_total",
		"elephant_admission_waits_total",
		"elephant_workload_records_total 3",
		"elephant_sessions 1",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/workload?limit=2", nil))
	var recs []WorkloadRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &recs); err != nil {
		t.Fatalf("/workload: %v\n%s", err, rec.Body.String())
	}
	if len(recs) != 2 {
		t.Fatalf("/workload?limit=2 returned %d records", len(recs))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", rec.Code)
	}
}

// TestMetricsTraceConcurrent runs traced (EXPLAIN ANALYZE) and untraced
// statements from many sessions while other goroutines snapshot metrics,
// scrape the registry and read the workload ring. Under -race this proves the
// observability paths are data-race free against live execution.
func TestMetricsTraceConcurrent(t *testing.T) {
	srv := newTestServer(t, 2000, Options{SlowQueryThreshold: time.Nanosecond})
	defer srv.Close()
	const sessions = 6
	const perSession = 15
	var workers, observers sync.WaitGroup
	stop := make(chan struct{})

	// Observer goroutines: snapshot, scrape, workload read in a tight loop.
	for i := 0; i < 3; i++ {
		observers.Add(1)
		go func(kind int) {
			defer observers.Done()
			h := srv.HTTPHandler()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch kind {
				case 0:
					_ = srv.Metrics()
				case 1:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				case 2:
					_ = srv.Workload(10)
				}
			}
		}(i)
	}

	queries := []string{
		"EXPLAIN ANALYZE SELECT grp, COUNT(*), SUM(amount) FROM items WHERE amount > 100 GROUP BY grp",
		"SELECT COUNT(*) FROM items WHERE id < 500",
		"EXPLAIN ANALYZE SELECT grp, amount FROM items WHERE id < 300 ORDER BY amount DESC LIMIT 10",
		"SELECT grp, MAX(amount) FROM items GROUP BY grp",
	}
	errc := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		workers.Add(1)
		go func(s int) {
			defer workers.Done()
			sess, err := srv.Session()
			if err != nil {
				errc <- err
				return
			}
			defer sess.Close()
			for i := 0; i < perSession; i++ {
				q := queries[(s+i)%len(queries)]
				res, err := sess.Execute(q)
				if err != nil {
					errc <- err
					return
				}
				if strings.HasPrefix(q, "EXPLAIN ANALYZE") && res.Trace == nil {
					errc <- fmt.Errorf("EXPLAIN ANALYZE returned no trace: %s", q)
					return
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() { workers.Wait(); close(done) }()
	select {
	case err := <-errc:
		close(stop)
		observers.Wait()
		t.Fatal(err)
	case <-done:
	case <-time.After(30 * time.Second):
		close(stop)
		observers.Wait()
		t.Fatal("timeout")
	}
	close(stop)
	observers.Wait()
	snap := srv.Metrics()
	if want := int64(sessions * perSession); snap.Queries != want {
		t.Fatalf("queries = %d, want %d", snap.Queries, want)
	}
	if snap.WorkloadRecords != int64(sessions*perSession) {
		t.Fatalf("workload records = %d", snap.WorkloadRecords)
	}
}
