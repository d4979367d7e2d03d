package server

import (
	"sync"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/obs"
	"oldelephant/internal/storage"
	"oldelephant/internal/wal"
)

// slowLogSize bounds the slow-query log (newest entries win).
const slowLogSize = 64

// SlowQuery is one slow-query log entry. Beyond the SQL and wall time it
// captures what made the query slow: the plan that executed, the queueing
// share of the latency, the per-query I/O delta, and — when the query ran
// with tracing (EXPLAIN ANALYZE) — the compact trace summary.
type SlowQuery struct {
	SQL     string
	Session int64
	Wall    time.Duration
	// Queue is how much of Wall was spent waiting for admission.
	Queue time.Duration
	Rows  int
	When  time.Time
	// Plan is the textual plan the statement executed (empty for DDL).
	Plan string
	// IO is the statement's page-I/O delta.
	IO storage.IOStats
	// Trace is the compact per-operator trace summary, set only when the
	// query executed with tracing on.
	Trace string
}

// metrics aggregates per-server observability: query counts, statement
// latency, summed per-query I/O, and the slow-query log.
type metrics struct {
	// The statement counters and the latency histogram belong to the server's
	// registry (initRegistry creates them): one lock-free update per completed
	// statement serves Snapshot, the wire metrics op and the Prometheus scrape
	// alike. The histogram is the only latency record kept; both are updated
	// under mu, so the figures of one snapshot describe the same statements.
	queries, errors, rejected, canceled *obs.Counter
	latency                             *obs.Histogram

	mu    sync.Mutex
	start time.Time

	io storage.IOStats

	slowThreshold time.Duration
	slow          []SlowQuery
}

func newMetrics(slowThreshold time.Duration) *metrics {
	return &metrics{start: time.Now(), slowThreshold: slowThreshold}
}

// observe records one finished query; queue is the admission-wait share of
// wall (0 for statements that bypass admission).
func (m *metrics) observe(sessionID int64, sqlText string, res *engine.Result, wall, queue time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries.Inc()
	m.latency.Observe(wall.Seconds())
	if res != nil {
		m.io = m.io.Add(res.Stats.IO)
	}
	if m.slowThreshold > 0 && wall >= m.slowThreshold {
		entry := SlowQuery{SQL: sqlText, Session: sessionID, Wall: wall, Queue: queue, When: time.Now()}
		if res != nil {
			entry.Rows = res.Stats.RowsReturned
			entry.Plan = res.Plan
			entry.IO = res.Stats.IO
			if res.Trace != nil {
				entry.Trace = res.Trace.Summary()
			}
		}
		m.slow = append(m.slow, entry)
		if len(m.slow) > slowLogSize {
			m.slow = m.slow[len(m.slow)-slowLogSize:]
		}
	}
}

// setSlowThreshold changes the slow-query threshold at runtime (0 disables
// the slow log).
func (m *metrics) setSlowThreshold(d time.Duration) {
	m.mu.Lock()
	m.slowThreshold = d
	m.mu.Unlock()
}

// getSlowThreshold returns the current slow-query threshold.
func (m *metrics) getSlowThreshold() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slowThreshold
}

// Snapshot is a point-in-time view of the server's health.
type Snapshot struct {
	Uptime  time.Duration
	Queries int64
	Errors  int64
	// Rejected counts queries shed by a full admission queue; Canceled counts
	// timeouts and client cancellations (in the queue or mid-execution).
	Rejected int64
	Canceled int64
	// QPS is queries completed per second of uptime.
	QPS float64
	// Latency of every statement completed since start, read from the
	// histogram /metrics exposes as elephant_query_duration_seconds: Max and
	// Mean are exact; the percentiles are interpolated within a bucket and
	// clamped to Max, so P50 <= P95 <= P99 <= Max.
	P50, P95, P99, Max, Mean time.Duration
	// Running and Queued are the admission controller's current load: queries
	// holding tokens and queries waiting for them. Queued is the current
	// admission-queue depth.
	Running, Queued int
	// InFlight is the number of statements currently executing or waiting in
	// the server (admitted SELECTs plus DDL/DML that bypass admission).
	InFlight int64
	// Waits counts queries that had to queue for admission (ever); Rejected
	// above counts the ones shed outright.
	Waits int64
	// Sessions is the number of open sessions.
	Sessions int
	// WorkloadRecords is the total number of workload-log records appended.
	WorkloadRecords int64
	// SlowThreshold is the current slow-query log threshold.
	SlowThreshold time.Duration
	// PlanCache is the engine's shared plan-cache counters.
	PlanCache engine.PlanCacheStats
	// WAL is the engine's group-commit counters (zero for in-memory engines)
	// and WALBytes the durable log size since the last checkpoint.
	WAL      wal.Stats
	WALBytes int64
	// BufferResident is the number of pages in memory — the buffer pool's
	// frames and the dirty pages held for the next checkpoint;
	// ChecksumFailures counts page slots that failed CRC verification when
	// the data file was opened.
	BufferResident   int
	ChecksumFailures int64
	// IO sums the per-query I/O stats of completed queries. Concurrent
	// queries share one buffer pool, so per-query attribution is approximate
	// under load; the sum remains an accurate server-wide volume.
	IO storage.IOStats
	// Slow is the slow-query log, oldest first.
	Slow []SlowQuery
}

// snapshot computes the current metrics (admission/session/plan-cache gauges
// are supplied by the server).
func (m *metrics) snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Uptime:        time.Since(m.start),
		Queries:       m.queries.Value(),
		Errors:        m.errors.Value(),
		Rejected:      m.rejected.Value(),
		Canceled:      m.canceled.Value(),
		P50:           seconds(m.latency.Quantile(0.50)),
		P95:           seconds(m.latency.Quantile(0.95)),
		P99:           seconds(m.latency.Quantile(0.99)),
		Max:           seconds(m.latency.Max()),
		SlowThreshold: m.slowThreshold,
		IO:            m.io,
		Slow:          append([]SlowQuery(nil), m.slow...),
	}
	if secs := s.Uptime.Seconds(); secs > 0 {
		s.QPS = float64(s.Queries) / secs
	}
	if n := m.latency.Count(); n > 0 {
		s.Mean = seconds(m.latency.Sum() / float64(n))
	}
	return s
}

func seconds(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
