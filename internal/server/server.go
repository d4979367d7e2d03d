// Package server is the concurrent query-serving subsystem on top of the
// engine: sessions with per-session execution knobs, prepared statements
// backed by the engine's shared plan cache, admission control that divides
// the machine's core budget across concurrent queries, per-server metrics
// (QPS, latency percentiles, plan-cache hit rate, aggregated I/O, a
// slow-query log), and a small TCP text/JSON wire protocol (Serve) spoken by
// cmd/elephantd and the elephantsql client mode.
//
// The engine provides the isolation contract the server leans on: SELECTs
// from any number of sessions run concurrently under a shared reader lock,
// while DDL/DML statements run exclusively and invalidate the plan cache.
// Admission control bounds the concurrency: a query is granted worker tokens
// out of the core budget before it may execute, runs its plan at exactly the
// granted parallelism, and returns the tokens when it finishes — so N
// concurrent queries times P workers never oversubscribe the machine.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/obs"
)

// ErrServerClosed is returned for work submitted after Close began.
var ErrServerClosed = errors.New("server: closed")

// Options configure a server.
type Options struct {
	// CoreBudget is the total number of worker tokens shared by all
	// concurrent queries (0 selects runtime.GOMAXPROCS(0)). A query running a
	// P-worker parallel plan holds P tokens for its duration.
	CoreBudget int
	// MaxQueue bounds how many queries may wait for admission beyond the ones
	// running; arrivals past the bound fail fast with ErrQueueFull.
	// 0 selects the default (64).
	MaxQueue int
	// DefaultTimeout is the per-query timeout applied when a session has not
	// set its own (0 = none). The timeout covers admission queueing and
	// execution.
	DefaultTimeout time.Duration
	// DefaultSessionParallelism is the per-query worker width sessions
	// request from the core budget until they call SetParallelism
	// (0 selects 1). Serving defaults to serial plans on purpose: N
	// concurrent queries then fill the budget side by side, which is what
	// maximizes throughput for the short selective queries a server mostly
	// sees — a session running wide analytic scans opts into parallelism
	// explicitly (and then holds that many tokens per query).
	DefaultSessionParallelism int
	// SlowQueryThreshold adds queries at least this slow to the slow-query
	// log (0 selects the default, 100ms).
	SlowQueryThreshold time.Duration
}

// defaultMaxQueue is the admission queue bound when Options.MaxQueue is 0.
const defaultMaxQueue = 64

// defaultSlowThreshold is the slow-query log threshold when unset.
const defaultSlowThreshold = 100 * time.Millisecond

// Server coordinates concurrent sessions over one engine.
type Server struct {
	eng      *engine.Engine
	adm      *admission
	metrics  *metrics
	workload *workloadLog
	opts     Options

	// inFlightN gauges statements currently inside the server (queued,
	// executing, or finishing) — the live companion to the completed-query
	// counters in metrics.
	inFlightN atomic.Int64

	// obsReg is the metrics registry behind the Prometheus endpoint, built in
	// New so recording needs no nil checks or synchronization.
	obsReg *obs.Registry

	mu        sync.Mutex
	sessions  map[int64]*Session
	nextID    int64
	closed    bool
	inflight  sync.WaitGroup
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
}

// New builds a server over an engine. The engine stays usable directly — the
// server adds sessions, admission and metrics on top of the same shared
// catalog, buffer pool and plan cache.
func New(eng *engine.Engine, opts Options) *Server {
	if opts.CoreBudget <= 0 {
		opts.CoreBudget = runtime.GOMAXPROCS(0)
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = defaultMaxQueue
	}
	if opts.SlowQueryThreshold <= 0 {
		opts.SlowQueryThreshold = defaultSlowThreshold
	}
	if opts.DefaultSessionParallelism <= 0 {
		opts.DefaultSessionParallelism = 1
	}
	s := &Server{
		eng:      eng,
		adm:      newAdmission(opts.CoreBudget, opts.MaxQueue),
		metrics:  newMetrics(opts.SlowQueryThreshold),
		workload: newWorkloadLog(0),
		opts:     opts,
		sessions: make(map[int64]*Session),
	}
	s.initRegistry()
	return s
}

// Engine returns the underlying engine.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Session opens a new session. Sessions are cheap; one per client
// connection (or per worker goroutine for in-process use).
func (s *Server) Session() (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	s.nextID++
	ss := &Session{
		srv:         s,
		id:          s.nextID,
		parallelism: s.opts.DefaultSessionParallelism,
		timeout:     s.opts.DefaultTimeout,
		prepared:    make(map[string]*engine.Prepared),
	}
	s.sessions[ss.id] = ss
	return ss, nil
}

// Close shuts the server down gracefully: listeners stop accepting and new
// sessions and queries are refused immediately, queries already admitted or
// queued run to completion, then remaining wire connections are closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()
	s.inflight.Wait()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return nil
}

// Metrics returns a point-in-time snapshot of the server's health.
func (s *Server) Metrics() Snapshot {
	snap := s.metrics.snapshot()
	snap.Running, snap.Queued = s.adm.load()
	snap.InFlight = s.inFlightN.Load()
	snap.Waits = s.adm.waitCount()
	snap.WorkloadRecords = s.workload.count()
	snap.PlanCache = s.eng.PlanCacheStats()
	snap.WAL = s.eng.WALStats()
	snap.WALBytes = s.eng.WALSize()
	snap.BufferResident = s.eng.Pager().Resident()
	snap.ChecksumFailures = s.eng.Pager().CorruptPages()
	s.mu.Lock()
	snap.Sessions = len(s.sessions)
	s.mu.Unlock()
	return snap
}

// SetSlowThreshold changes the slow-query log threshold at runtime for the
// whole server (0 disables the log). Clients reach it through the wire
// protocol's set op ("slow_ms"); elephantd sets the initial value from its
// -slow flag.
func (s *Server) SetSlowThreshold(d time.Duration) { s.metrics.setSlowThreshold(d) }

// SlowThreshold returns the current slow-query log threshold.
func (s *Server) SlowThreshold() time.Duration { return s.metrics.getSlowThreshold() }

// LogWorkloadTo mirrors every workload-log record to a JSONL file (appending
// to an existing log). elephantd points this at <data>/workload.jsonl when
// running durable; ReadWorkloadLog decodes the file back, tolerating a torn
// final line.
func (s *Server) LogWorkloadTo(path string) error { return s.workload.persistTo(path) }

// Workload returns up to limit most-recent workload-log records, oldest
// first (limit <= 0 returns the whole ring).
func (s *Server) Workload(limit int) []WorkloadRecord { return s.workload.recent(limit) }

// CloseWorkloadLog flushes and closes the workload JSONL file, if one was
// opened. The in-memory ring keeps recording.
func (s *Server) CloseWorkloadLog() error { return s.workload.close() }

// Session is one client's state: execution knobs, prepared statements and
// counters. A Session is not safe for concurrent use by multiple goroutines;
// open one session per goroutine (they are cheap and share everything that
// matters through the server).
type Session struct {
	srv *Server
	id  int64

	// parallelism is this session's per-query worker request (defaults to
	// the server's DefaultSessionParallelism).
	parallelism int
	// timeout bounds each query (admission wait + execution); 0 = none.
	timeout time.Duration

	prepared map[string]*engine.Prepared
	queries  int64
	closed   bool
}

// ID returns the session's server-unique id.
func (ss *Session) ID() int64 { return ss.id }

// SetParallelism sets the worker count this session's queries request from
// the core budget (0 restores the server's session default).
func (ss *Session) SetParallelism(n int) {
	if n <= 0 {
		n = ss.srv.opts.DefaultSessionParallelism
	}
	ss.parallelism = n
}

// SetTimeout sets the per-query timeout (0 disables; the server default
// applies only until the first SetTimeout call).
func (ss *Session) SetTimeout(d time.Duration) { ss.timeout = d }

// Queries returns how many queries the session has executed.
func (ss *Session) Queries() int64 { return ss.queries }

// Close releases the session and its prepared statements. Idempotent.
func (ss *Session) Close() {
	if ss.closed {
		return
	}
	ss.closed = true
	clear(ss.prepared)
	ss.srv.mu.Lock()
	delete(ss.srv.sessions, ss.id)
	ss.srv.mu.Unlock()
}

// Query executes one SELECT with admission control, the session's
// parallelism and timeout, and metrics accounting.
func (ss *Session) Query(sqlText string) (*engine.Result, error) {
	return ss.QueryCtx(context.Background(), sqlText)
}

// QueryCtx is Query with caller-supplied cancellation (the session timeout,
// when set, still applies on top).
func (ss *Session) QueryCtx(ctx context.Context, sqlText string) (*engine.Result, error) {
	return ss.run(ctx, sqlText, func(opts engine.QueryOptions) (*engine.Result, error) {
		return ss.srv.eng.QueryWith(opts, sqlText)
	})
}

// Prepare registers a SELECT under name; repeated ExecPrepared calls then
// lease compiled plans from the shared plan cache, skipping lex/parse/plan
// entirely on a warm cache. Prepared statements are shared server-wide: the
// engine interns handles by exact text, so a statement another session
// already prepared costs this session one map entry, not a parse and a
// second parse tree. Re-preparing a name, or closing the session, lets go
// of the handle; the engine forgets a text once no session holds it.
func (ss *Session) Prepare(name, sqlText string) error {
	if ss.closed {
		return ErrServerClosed
	}
	p, err := ss.srv.eng.Prepare(sqlText)
	if err != nil {
		return err
	}
	ss.prepared[name] = p
	return nil
}

// ExecPrepared executes a statement previously registered with Prepare.
func (ss *Session) ExecPrepared(name string) (*engine.Result, error) {
	return ss.ExecPreparedCtx(context.Background(), name)
}

// ExecPreparedCtx is ExecPrepared with caller-supplied cancellation.
func (ss *Session) ExecPreparedCtx(ctx context.Context, name string) (*engine.Result, error) {
	if ss.closed {
		return nil, ErrServerClosed
	}
	p, ok := ss.prepared[name]
	if !ok {
		return nil, fmt.Errorf("server: no prepared statement %q", name)
	}
	return ss.run(ctx, p.Text, func(opts engine.QueryOptions) (*engine.Result, error) {
		return ss.srv.eng.QueryPrepared(opts, p)
	})
}

// Execute runs any statement. SELECTs go through the session query path
// (admission, plan cache); DDL/DML statements bypass admission (they
// serialize on the engine's writer lock instead — they are rare, and
// queueing them behind reader-token availability could deadlock a full
// queue of readers waiting on a writer). Classification peeks at the first
// token instead of parsing, so an ad-hoc SELECT still reaches the engine
// unparsed and a plan-cache hit skips lexing and parsing entirely.
func (ss *Session) Execute(sqlText string) (*engine.Result, error) {
	if startsWithSelect(sqlText) {
		return ss.Query(sqlText)
	}
	srv := ss.srv
	srv.mu.Lock()
	if srv.closed || ss.closed {
		srv.mu.Unlock()
		return nil, ErrServerClosed
	}
	srv.inflight.Add(1)
	srv.mu.Unlock()
	defer srv.inflight.Done()
	srv.inFlightN.Add(1)
	defer srv.inFlightN.Add(-1)
	start := time.Now()
	res, err := srv.eng.Execute(sqlText)
	if err != nil {
		srv.metrics.errors.Inc()
		return nil, err
	}
	wall := time.Since(start)
	ss.queries++
	srv.metrics.observe(ss.id, sqlText, res, wall, 0)
	srv.workload.append(newWorkloadRecord(ss.id, sqlText, res, wall, 0))
	return res, nil
}

// startsWithSelect reports whether the statement's first token is the
// keyword SELECT, skipping leading whitespace and "--" line comments the
// way the lexer does.
func startsWithSelect(sqlText string) bool {
	i := 0
	for i < len(sqlText) {
		switch c := sqlText[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(sqlText) && sqlText[i+1] == '-':
			for i < len(sqlText) && sqlText[i] != '\n' {
				i++
			}
		default:
			const kw = "select"
			if len(sqlText)-i < len(kw) {
				return false
			}
			for j := 0; j < len(kw); j++ {
				c := sqlText[i+j]
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				if c != kw[j] {
					return false
				}
			}
			// Word boundary: "selective" is an identifier, not the keyword.
			if rest := i + len(kw); rest < len(sqlText) {
				c := sqlText[rest]
				if c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
					return false
				}
			}
			return true
		}
	}
	return false
}

// run is the shared admission + execution + accounting path for SELECTs.
func (ss *Session) run(ctx context.Context, sqlText string, exec func(engine.QueryOptions) (*engine.Result, error)) (*engine.Result, error) {
	srv := ss.srv
	srv.mu.Lock()
	if srv.closed || ss.closed {
		srv.mu.Unlock()
		return nil, ErrServerClosed
	}
	srv.inflight.Add(1)
	srv.mu.Unlock()
	defer srv.inflight.Done()
	srv.inFlightN.Add(1)
	defer srv.inFlightN.Add(-1)

	if ctx == nil {
		ctx = context.Background()
	}
	if ss.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ss.timeout)
		defer cancel()
	}

	start := time.Now()
	granted, err := srv.adm.acquire(ctx, ss.parallelism)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			srv.metrics.rejected.Inc()
		} else {
			srv.metrics.canceled.Inc()
		}
		return nil, err
	}
	defer srv.adm.release(granted)
	queue := time.Since(start)

	res, err := exec(engine.QueryOptions{Ctx: ctx, Parallelism: granted})
	if err != nil {
		if ctx.Err() != nil {
			srv.metrics.canceled.Inc()
		} else {
			srv.metrics.errors.Inc()
		}
		return nil, err
	}
	wall := time.Since(start)
	ss.queries++
	srv.metrics.observe(ss.id, sqlText, res, wall, queue)
	srv.workload.append(newWorkloadRecord(ss.id, sqlText, res, wall, queue))
	return res, nil
}
