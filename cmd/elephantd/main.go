// Command elephantd runs the query-serving daemon: an engine (optionally
// pre-loaded with TPC-H) behind the server package's session, plan-cache and
// admission-control machinery, speaking the newline-delimited JSON wire
// protocol on a TCP listener.
//
// Usage:
//
//	elephantd -addr :7654 -tpch 0.01 -cores 4 -queue 64 -timeout 5s
//
// Connect with `elephantsql -connect :7654`, or any newline-JSON client:
//
//	{"op":"query","sql":"SELECT COUNT(*) FROM lineitem"}
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight queries finish,
// then the final metrics snapshot (QPS, latency percentiles, plan-cache hit
// rate) is printed.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/server"
	"oldelephant/internal/tpch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("elephantd: ")
	var (
		addr     = flag.String("addr", ":7654", "TCP listen address")
		httpAddr = flag.String("http", "", "observability HTTP listen address serving /metrics (Prometheus), /workload and /debug/pprof (empty = disabled)")
		dataDir  = flag.String("data", "", "durable data directory (empty = in-memory); created if missing, recovered if it holds a previous run")
		sf       = flag.Float64("tpch", 0, "pre-load TPC-H core tables at this scale factor (0 = start empty)")
		cores    = flag.Int("cores", 0, "core budget shared by concurrent queries (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "admission queue bound (0 = default 64)")
		timeout  = flag.Duration("timeout", 0, "default per-query timeout (0 = none)")
		slow     = flag.Duration("slow", 100*time.Millisecond, "slow-query log threshold (runtime-settable via the wire set op's slow_ms)")
		dop      = flag.Int("dop", 1, "default per-query parallelism sessions request from the core budget (clients override with the set op)")
	)
	flag.Parse()

	eng, err := engine.Open(engine.Options{DataDir: *dataDir})
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		log.Printf("durable data directory %s (recovered %d tables)", *dataDir, len(eng.Catalog().Tables()))
	}
	if *sf > 0 {
		log.Printf("loading TPC-H at sf=%g...", *sf)
		if err := tpch.NewGenerator(*sf).LoadCore(eng); err != nil {
			log.Fatal(err)
		}
	}
	srv := server.New(eng, server.Options{
		CoreBudget:                *cores,
		MaxQueue:                  *queue,
		DefaultTimeout:            *timeout,
		SlowQueryThreshold:        *slow,
		DefaultSessionParallelism: *dop,
	})

	if *dataDir != "" {
		// Persist the workload log next to the data files so the
		// physical-design advisor can mine it across restarts.
		wlPath := filepath.Join(*dataDir, "workload.jsonl")
		if err := srv.LogWorkloadTo(wlPath); err != nil {
			log.Printf("workload log disabled: %v", err)
		} else {
			log.Printf("workload log at %s", wlPath)
			defer srv.CloseWorkloadLog()
		}
	}
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("observability HTTP on %s (/metrics, /workload, /debug/pprof)", hl.Addr())
		hsrv := &http.Server{Handler: srv.HTTPHandler()}
		go hsrv.Serve(hl)
		defer hsrv.Close()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s", l.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("shutting down (draining in-flight queries)...")
		srv.Close()
	}()

	if err := srv.Serve(l); err != nil {
		log.Fatal(err)
	}
	// Final checkpoint: flush dirty pages, write the meta snapshot, truncate
	// the WAL. A kill -9 instead of a clean shutdown would recover the same
	// state from the log.
	if err := eng.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	printSnapshot(srv.Metrics())
}

func printSnapshot(m server.Snapshot) {
	fmt.Printf("served %d queries in %v (%.1f qps, %d errors, %d rejected, %d canceled)\n",
		m.Queries, m.Uptime.Round(time.Millisecond), m.QPS, m.Errors, m.Rejected, m.Canceled)
	fmt.Printf("latency p50 %v  p95 %v  p99 %v  max %v\n",
		m.P50.Round(time.Microsecond), m.P95.Round(time.Microsecond),
		m.P99.Round(time.Microsecond), m.Max.Round(time.Microsecond))
	pc := m.PlanCache
	fmt.Printf("plan cache: %d hits, %d stmt hits, %d misses (%.0f%% hit rate), %d entries\n",
		pc.Hits, pc.StmtHits, pc.Misses, 100*pc.HitRate(), pc.Entries)
	fmt.Printf("io: %d page reads (%d seq / %d rand), %d buffer hits\n",
		m.IO.PageReads, m.IO.SeqReads, m.IO.RandReads, m.IO.CacheHits)
	for _, s := range m.Slow {
		fmt.Printf("slow: %v session=%d rows=%d  %s\n", s.Wall.Round(time.Microsecond), s.Session, s.Rows, s.SQL)
	}
}
