package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/trace"
	"oldelephant/internal/value"
)

// The wire protocol is newline-delimited JSON over TCP: one request object
// per line in, one response object per line out, strictly in order. It is
// deliberately small — a serving-layer protocol for the reproduction, not a
// PostgreSQL work-alike — but covers the session surface: ad-hoc statements,
// prepared statements, per-session knobs, server metrics and ping.
//
// Requests:
//
//	{"op":"query","sql":"SELECT ..."}         execute any statement
//	                                          (incl. EXPLAIN [ANALYZE] SELECT)
//	{"op":"prepare","name":"q1","sql":"..."}  parse + register
//	{"op":"exec","name":"q1"}                 run a prepared statement
//	{"op":"set","parallelism":2,"timeout_ms":500,"slow_ms":250}
//	{"op":"metrics"}                          server snapshot
//	{"op":"workload","limit":100}             recent workload-log records
//	{"op":"ping"}
//	{"op":"close"}                            end the session
//
// parallelism and timeout_ms scope to the session; slow_ms sets the
// server-wide slow-query threshold (0 disables the slow log).
//
// Responses carry {"ok":true,...} with columns/rows/plan/wall_us/cached for
// result sets, or {"ok":false,"error":"..."}. Values map to JSON naturally
// (dates render as "YYYY-MM-DD" strings, NULL as null).

// Request is one wire request.
type Request struct {
	Op          string `json:"op"`
	SQL         string `json:"sql,omitempty"`
	Name        string `json:"name,omitempty"`
	Parallelism *int   `json:"parallelism,omitempty"`
	TimeoutMS   *int   `json:"timeout_ms,omitempty"`
	SlowMS      *int   `json:"slow_ms,omitempty"`
	Limit       *int   `json:"limit,omitempty"`
}

// Response is one wire response.
type Response struct {
	OK       bool         `json:"ok"`
	Error    string       `json:"error,omitempty"`
	Columns  []string     `json:"columns,omitempty"`
	Rows     [][]any      `json:"rows,omitempty"`
	RowCount int          `json:"row_count,omitempty"`
	Plan     string       `json:"plan,omitempty"`
	WallUS   int64        `json:"wall_us,omitempty"`
	Cached   bool         `json:"cached,omitempty"`
	Metrics  *WireMetrics `json:"metrics,omitempty"`
	// Trace is the structured span tree of an EXPLAIN ANALYZE execution.
	Trace *trace.Span `json:"trace,omitempty"`
	// Workload carries the workload op's records.
	Workload []WorkloadRecord `json:"workload,omitempty"`
}

// WireMetrics is the JSON shape of a metrics snapshot. p50/p95/p99/max and
// queries all describe everything completed since start.
type WireMetrics struct {
	UptimeMS      int64   `json:"uptime_ms"`
	Queries       int64   `json:"queries"`
	Errors        int64   `json:"errors"`
	Rejected      int64   `json:"rejected"`
	Canceled      int64   `json:"canceled"`
	QPS           float64 `json:"qps"`
	P50US         int64   `json:"p50_us"`
	P95US         int64   `json:"p95_us"`
	P99US         int64   `json:"p99_us"`
	MaxUS         int64   `json:"max_us"`
	Running       int     `json:"running"`
	Queued        int     `json:"queued"`
	InFlight      int64   `json:"in_flight"`
	Waits         int64   `json:"admission_waits"`
	Sessions      int     `json:"sessions"`
	SlowMS        int64   `json:"slow_ms"`
	WorkloadRecs  int64   `json:"workload_records"`
	CacheHits     int64   `json:"plan_cache_hits"`
	CacheMiss     int64   `json:"plan_cache_misses"`
	CacheEvict    int64   `json:"plan_cache_evictions"`
	CacheRate     float64 `json:"plan_cache_hit_rate"`
	PageReads     int64   `json:"page_reads"`
	CacheReads    int64   `json:"buffer_cache_hits"`
	Resident      int     `json:"buffer_resident_pages"`
	ChecksumFails int64   `json:"checksum_failures"`
	WALCommits    int64   `json:"wal_commits"`
	WALSyncs      int64   `json:"wal_syncs"`
	WALAborts     int64   `json:"wal_aborts"`
	WALBytes      int64   `json:"wal_bytes_since_checkpoint"`
}

func wireMetrics(snap Snapshot) *WireMetrics {
	return &WireMetrics{
		UptimeMS:      snap.Uptime.Milliseconds(),
		Queries:       snap.Queries,
		Errors:        snap.Errors,
		Rejected:      snap.Rejected,
		Canceled:      snap.Canceled,
		QPS:           snap.QPS,
		P50US:         snap.P50.Microseconds(),
		P95US:         snap.P95.Microseconds(),
		P99US:         snap.P99.Microseconds(),
		MaxUS:         snap.Max.Microseconds(),
		Running:       snap.Running,
		Queued:        snap.Queued,
		InFlight:      snap.InFlight,
		Waits:         snap.Waits,
		Sessions:      snap.Sessions,
		SlowMS:        snap.SlowThreshold.Milliseconds(),
		WorkloadRecs:  snap.WorkloadRecords,
		CacheHits:     snap.PlanCache.Hits,
		CacheMiss:     snap.PlanCache.Misses,
		CacheEvict:    snap.PlanCache.Evictions,
		CacheRate:     snap.PlanCache.HitRate(),
		PageReads:     snap.IO.PageReads,
		CacheReads:    snap.IO.CacheHits,
		Resident:      snap.BufferResident,
		ChecksumFails: snap.ChecksumFailures,
		WALCommits:    snap.WAL.Commits,
		WALSyncs:      snap.WAL.Syncs,
		WALAborts:     snap.WAL.Aborts,
		WALBytes:      snap.WALBytes,
	}
}

// wireValue converts one SQL value to its JSON form.
func wireValue(v value.Value) any {
	switch v.Kind {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.I
	case value.KindFloat:
		return v.F
	case value.KindBool:
		return v.Bool()
	default:
		// Strings and dates both render through String (dates as YYYY-MM-DD).
		return v.String()
	}
}

// resultResponse renders an engine result.
func resultResponse(res *engine.Result) Response {
	out := Response{
		OK:       true,
		Columns:  res.Columns,
		RowCount: len(res.Rows),
		Plan:     res.Plan,
		WallUS:   res.Stats.Wall.Microseconds(),
		Cached:   res.Stats.PlanCached,
		Trace:    res.Trace,
	}
	if len(res.Rows) > 0 {
		out.Rows = make([][]any, len(res.Rows))
		for i, row := range res.Rows {
			enc := make([]any, len(row))
			for j, v := range row {
				enc[j] = wireValue(v)
			}
			out.Rows[i] = enc
		}
	}
	return out
}

// maxLineBytes bounds one wire request/response line (16 MB).
const maxLineBytes = 16 << 20

// initLineBytes is a connection's first request buffer. The scanner grows it
// as a longer line arrives, up to maxLineBytes, so an idle connection or one
// sending short statements holds 4 KiB, not the most a line may need.
const initLineBytes = 4 << 10

// Serve accepts connections on l and speaks the wire protocol until the
// listener fails or the server closes. Each connection gets its own session.
// It returns nil after a graceful Close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn runs one connection's request loop.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.trackConn(conn, true)
	defer s.trackConn(conn, false)
	sess, err := s.Session()
	if err != nil {
		return
	}
	defer sess.Close()

	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, initLineBytes), maxLineBytes)
	w := bufio.NewWriter(conn)
	enc := json.NewEncoder(w)
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		var resp Response
		if err := json.Unmarshal(line, &req); err != nil {
			resp = Response{Error: fmt.Sprintf("bad request: %v", err)}
		} else if req.Op == "close" {
			enc.Encode(Response{OK: true})
			w.Flush()
			return
		} else {
			resp = s.handle(sess, req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// handle dispatches one request on a session.
func (s *Server) handle(sess *Session, req Request) Response {
	switch req.Op {
	case "query":
		res, err := sess.Execute(req.SQL)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return resultResponse(res)
	case "prepare":
		if req.Name == "" {
			return Response{Error: "prepare: missing name"}
		}
		if err := sess.Prepare(req.Name, req.SQL); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true}
	case "exec":
		res, err := sess.ExecPrepared(req.Name)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return resultResponse(res)
	case "set":
		if req.Parallelism != nil {
			sess.SetParallelism(*req.Parallelism)
		}
		if req.TimeoutMS != nil {
			sess.SetTimeout(time.Duration(*req.TimeoutMS) * time.Millisecond)
		}
		if req.SlowMS != nil {
			s.SetSlowThreshold(time.Duration(*req.SlowMS) * time.Millisecond)
		}
		return Response{OK: true}
	case "metrics":
		return Response{OK: true, Metrics: wireMetrics(s.Metrics())}
	case "workload":
		limit := 0
		if req.Limit != nil {
			limit = *req.Limit
		}
		return Response{OK: true, Workload: s.Workload(limit)}
	case "ping":
		return Response{OK: true}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// trackConn registers/unregisters a live connection for shutdown.
func (s *Server) trackConn(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}
