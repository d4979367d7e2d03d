package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"

	"oldelephant/internal/obs"
)

// Registry wiring: the server exports every subsystem's counters through one
// obs.Registry. Subsystems that already keep their own statistics (plan
// cache, WAL, pager, admission control) are bridged with scrape-time callback
// metrics, so the hot paths keep their existing, already-synchronized
// counters and pay nothing for the export; the server's own statement
// counters and the query-latency histogram live in the registry and are
// recorded push-style, one lock-free update per completed statement.

// initRegistry builds the server's metrics registry. Called once from New.
func (s *Server) initRegistry() {
	r := obs.NewRegistry()
	s.obsReg = r

	// Server-level query accounting.
	m := s.metrics
	m.latency = r.NewHistogram("elephant_query_duration_seconds",
		"Completed statement latency (admission wait + execution).", obs.DurationBuckets)
	m.queries = r.NewCounter("elephant_queries_total", "Statements completed successfully.")
	m.errors = r.NewCounter("elephant_query_errors_total", "Statements that failed.")
	m.rejected = r.NewCounter("elephant_queries_rejected_total", "Queries shed by a full admission queue.")
	m.canceled = r.NewCounter("elephant_queries_canceled_total", "Queries canceled or timed out.")
	r.GaugeFunc("elephant_queries_in_flight", "Statements currently executing or queued.",
		s.inFlightN.Load)
	r.GaugeFunc("elephant_sessions", "Open sessions.",
		func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return int64(len(s.sessions)) })

	// Admission control.
	r.GaugeFunc("elephant_admission_running", "Queries holding worker tokens.",
		func() int64 { running, _ := s.adm.load(); return int64(running) })
	r.GaugeFunc("elephant_admission_queue_depth", "Queries waiting for admission.",
		func() int64 { _, queued := s.adm.load(); return int64(queued) })
	r.CounterFunc("elephant_admission_waits_total", "Queries that had to queue before admission.",
		s.adm.waitCount)

	// Plan cache.
	r.CounterFunc("elephant_plan_cache_hits_total", "Plan-cache instance hits.",
		func() int64 { return s.eng.PlanCacheStats().Hits })
	r.CounterFunc("elephant_plan_cache_stmt_hits_total", "Plan-cache statement (parse-skip) hits.",
		func() int64 { return s.eng.PlanCacheStats().StmtHits })
	r.CounterFunc("elephant_plan_cache_misses_total", "Plan-cache misses.",
		func() int64 { return s.eng.PlanCacheStats().Misses })
	r.CounterFunc("elephant_plan_cache_evictions_total", "Plan-cache LRU evictions.",
		func() int64 { return s.eng.PlanCacheStats().Evictions })
	r.CounterFunc("elephant_plan_cache_invalidations_total", "Wholesale plan-cache invalidations (DDL/DML).",
		func() int64 { return s.eng.PlanCacheStats().Invalidations })
	r.GaugeFunc("elephant_plan_cache_entries", "Cached statements.",
		func() int64 { return int64(s.eng.PlanCacheStats().Entries) })

	// WAL / group commit.
	r.CounterFunc("elephant_wal_commits_total", "Commit groups appended to the WAL.",
		func() int64 { return s.eng.WALStats().Commits })
	r.CounterFunc("elephant_wal_syncs_total", "Fsyncs issued by group-commit leaders.",
		func() int64 { return s.eng.WALStats().Syncs })
	r.CounterFunc("elephant_wal_bytes_written_total", "Log bytes written.",
		func() int64 { return s.eng.WALStats().BytesWritten })
	r.CounterFunc("elephant_wal_aborts_total", "Pending commit batches discarded after a failed WAL write or fsync.",
		func() int64 { return s.eng.WALStats().Aborts })
	r.GaugeFunc("elephant_wal_bytes_since_checkpoint", "Durable log size since the last checkpoint.",
		s.eng.WALSize)

	// Pager / buffer pool.
	r.CounterFunc("elephant_pager_page_reads_total", "Page reads that missed the buffer pool.",
		func() int64 { return s.eng.Pager().Stats().PageReads })
	r.CounterFunc("elephant_pager_seq_reads_total", "Page reads classified sequential.",
		func() int64 { return s.eng.Pager().Stats().SeqReads })
	r.CounterFunc("elephant_pager_rand_reads_total", "Page reads classified random.",
		func() int64 { return s.eng.Pager().Stats().RandReads })
	r.CounterFunc("elephant_pager_cache_hits_total", "Page accesses served by the buffer pool.",
		func() int64 { return s.eng.Pager().Stats().CacheHits })
	r.CounterFunc("elephant_pager_page_writes_total", "Pages written.",
		func() int64 { return s.eng.Pager().Stats().PageWrites })
	r.GaugeFunc("elephant_pager_resident_pages", "Pages in memory: buffer-pool frames and dirty pages held for the checkpoint.",
		func() int64 { return int64(s.eng.Pager().Resident()) })
	r.GaugeFunc("elephant_pager_checksum_failures", "Page slots that failed CRC verification at open.",
		func() int64 { return s.eng.Pager().CorruptPages() })

	// Workload log.
	r.CounterFunc("elephant_workload_records_total", "Workload-log records appended.",
		s.workload.count)
}

// Registry returns the server's metrics registry (for embedding the server
// in a process with its own exposition endpoint).
func (s *Server) Registry() *obs.Registry { return s.obsReg }

// HTTPHandler returns the observability HTTP surface elephantd mounts on its
// -http listener:
//
//	/metrics        Prometheus text exposition of the registry
//	/workload       recent workload-log records as JSON (?limit=N)
//	/debug/pprof/   the standard Go profiling endpoints
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.obsReg.Handler())
	mux.HandleFunc("/workload", func(w http.ResponseWriter, req *http.Request) {
		limit := 0
		if v := req.URL.Query().Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				limit = n
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Workload(limit))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
