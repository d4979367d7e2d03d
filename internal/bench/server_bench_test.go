package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/server"
)

// The serving-layer benchmarks: the multi-client load generator that drives
// the throughput numbers (QPS, latency percentiles, plan-cache hit rate),
// and the prepared-vs-cold comparison behind the plan cache's speedup claim.
//
//	go test ./internal/bench -bench 'ServerThroughput|PreparedVsCold'

// benchServerHarness memoizes one harness for the server
// benchmarks (the TPC-H build dominates otherwise).
var (
	benchServerOnce sync.Once
	benchServerH    *Harness
	benchServerErr  error
)

func serverHarness(b *testing.B) *Harness {
	b.Helper()
	benchServerOnce.Do(func() {
		benchServerH, benchServerErr = NewHarness(DefaultConfig())
	})
	if benchServerErr != nil {
		b.Fatal(benchServerErr)
	}
	return benchServerH
}

// throughputWorkload is the statement mix the load generator replays: the
// seven workload queries under the Row strategy at 10% selectivity.
func throughputWorkload(b *testing.B, h *Harness) []string {
	b.Helper()
	var out []string
	for _, q := range Queries() {
		spec := h.specs()[q]
		query, _ := spec.resolve(h, 0.1)
		out = append(out, query)
	}
	return out
}

// BenchmarkServerThroughput is the multi-client load generator: 8 client
// goroutines, each with its own session, replaying the 7-query workload
// round-robin against one server (core budget = GOMAXPROCS, plan cache on).
// One benchmark op is one completed query; reported metrics add the load
// generator's own latency percentiles and the server's plan-cache hit rate.
func BenchmarkServerThroughput(b *testing.B) {
	h := serverHarness(b)
	workload := throughputWorkload(b, h)
	srv := server.New(h.Engine, server.Options{CoreBudget: 0, MaxQueue: 1 << 20})
	defer srv.Close()

	const clients = 8
	var next atomic.Int64
	var mu sync.Mutex
	var lats []time.Duration

	b.ResetTimer()
	b.SetParallelism(clients) // clients goroutines per GOMAXPROCS
	b.RunParallel(func(pb *testing.PB) {
		sess, err := srv.Session()
		if err != nil {
			b.Error(err)
			return
		}
		defer sess.Close()
		var local []time.Duration
		for pb.Next() {
			q := workload[int(next.Add(1))%len(workload)]
			start := time.Now()
			if _, err := sess.Query(q); err != nil {
				b.Error(err)
				return
			}
			local = append(local, time.Since(start))
		}
		mu.Lock()
		lats = append(lats, local...)
		mu.Unlock()
	})
	b.StopTimer()

	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "qps")
	}
	m := srv.Metrics()
	b.ReportMetric(m.PlanCache.HitRate(), "cache-hit-rate")
	b.ReportMetric(float64(m.P50.Microseconds()), "p50-us")
	b.ReportMetric(float64(m.P95.Microseconds()), "p95-us")
	b.ReportMetric(float64(m.P99.Microseconds()), "p99-us")
}

// selectiveSeekSQL is the acceptance shape for the plan-cache speedup: an
// equality seek on lineitem's clustered key — a few-row clustered range scan
// whose execution is microseconds, so the lex/parse/plan work the cache
// skips dominates the cold path.
const selectiveSeekSQL = "SELECT l_suppkey, l_shipdate FROM lineitem WHERE l_orderkey = 1984"

// ordersSeekFmt is a point lookup on orders' clustered key, the shape of
// the prepared seeks a serving workload sends by the thousand.
const ordersSeekFmt = "SELECT o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d"

// BenchmarkPreparedVsCold compares the cold path (lex+parse+plan+execute,
// plan cache bypassed) against a prepared, plan-cache-hit execution through
// a server session — the speedup prepared statements buy on selective
// queries. Prepared1024 runs 1,024 prepared point lookups that differ only
// in their key round-robin: they share one shape, so every execution leases
// the one cached plan although the texts are four times the plan cache.
// Run them and compare ns/op:
//
//	go test ./internal/bench -bench PreparedVsCold
func BenchmarkPreparedVsCold(b *testing.B) {
	h := serverHarness(b)
	sqlText := selectiveSeekSQL
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.Engine.QueryWith(engine.QueryOptions{NoCache: true}, sqlText); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Prepared", func(b *testing.B) {
		srv := server.New(h.Engine, server.Options{})
		defer srv.Close()
		sess, err := srv.Session()
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		if err := sess.Prepare("seek", sqlText); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.ExecPrepared("seek"); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.ExecPrepared("seek")
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.PlanCached {
				b.Fatal("prepared execution missed the plan cache")
			}
		}
	})
	b.Run("Prepared1024", func(b *testing.B) {
		srv := server.New(h.Engine, server.Options{})
		defer srv.Close()
		sess, err := srv.Session()
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		keys, err := h.Engine.Query("SELECT o_orderkey FROM orders LIMIT 1024")
		if err != nil {
			b.Fatal(err)
		}
		names := make([]string, len(keys.Rows))
		for i, row := range keys.Rows {
			names[i] = fmt.Sprintf("seek%d", i)
			if err := sess.Prepare(names[i], fmt.Sprintf(ordersSeekFmt, row[0].Int())); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.ExecPrepared(names[i]); err != nil { // warm the cache
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.ExecPrepared(names[i%len(names)])
			if err != nil {
				b.Fatal(err)
			}
			if !res.Stats.PlanCached || len(res.Rows) != 1 {
				b.Fatalf("%s: %d rows, plan cached %v; want one row from the shared plan", names[i%len(names)], len(res.Rows), res.Stats.PlanCached)
			}
		}
	})
}

// TestPreparedFasterThanCold pins the direction of the plan-cache win
// without a flakiness-prone ratio assertion: the median plan-cache-hit
// execution of the selective seek must not be slower than the median cold
// parse+plan+execute (the benchmark records the actual ratio; the 2x
// acceptance number lives in CHANGES.md).
func TestPreparedFasterThanCold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	h, err := NewHarness(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sqlText := selectiveSeekSQL
	p, err := h.Engine.Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Engine.QueryPrepared(engine.QueryOptions{}, p); err != nil {
		t.Fatal(err)
	}
	const iters = 41
	median := func(f func() error) time.Duration {
		times := make([]time.Duration, iters)
		for i := range times {
			start := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			times[i] = time.Since(start)
		}
		for i := 1; i < len(times); i++ {
			for j := i; j > 0 && times[j] < times[j-1]; j-- {
				times[j], times[j-1] = times[j-1], times[j]
			}
		}
		return times[iters/2]
	}
	cold := median(func() error {
		_, err := h.Engine.QueryWith(engine.QueryOptions{NoCache: true}, sqlText)
		return err
	})
	warm := median(func() error {
		res, err := h.Engine.QueryPrepared(engine.QueryOptions{}, p)
		if err == nil && !res.Stats.PlanCached {
			return fmt.Errorf("prepared execution missed the plan cache")
		}
		return err
	})
	t.Logf("selective seek: cold median %v, prepared median %v (%.1fx)", cold, warm, float64(cold)/float64(warm))
	if warm > cold {
		t.Errorf("prepared median %v slower than cold median %v", warm, cold)
	}
}
