package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

// newTestServer builds a server over an engine with one populated table.
func newTestServer(t *testing.T, rows int, opts Options) *Server {
	t.Helper()
	e := engine.New(engine.Options{})
	if _, err := e.Execute("CREATE TABLE items (id INT, grp INT, amount FLOAT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	data := make([][]value.Value, rows)
	for i := range data {
		data[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 9)),
			value.NewFloat(float64(i % 250)),
		}
	}
	if err := e.BulkLoad("items", data); err != nil {
		t.Fatal(err)
	}
	return New(e, opts)
}

func TestSessionQueryAndPrepared(t *testing.T) {
	srv := newTestServer(t, 1000, Options{})
	defer srv.Close()
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	if err := sess.Prepare("bygrp", "SELECT grp, COUNT(*) FROM items GROUP BY grp"); err != nil {
		t.Fatal(err)
	}
	r1, err := sess.ExecPrepared("bygrp")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sess.ExecPrepared("bygrp")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats.PlanCached {
		t.Error("second prepared execution missed the plan cache")
	}
	if len(r1.Rows) != 9 || len(r2.Rows) != 9 {
		t.Errorf("prepared executions returned %d / %d groups, want 9", len(r1.Rows), len(r2.Rows))
	}
	if _, err := sess.ExecPrepared("nosuch"); err == nil {
		t.Error("executing an unknown prepared name succeeded")
	}
	m := srv.Metrics()
	if m.Queries != 3 {
		t.Errorf("metrics counted %d queries, want 3", m.Queries)
	}
	if m.Sessions != 1 {
		t.Errorf("metrics report %d sessions, want 1", m.Sessions)
	}
}

// TestAdmissionBudget: with a budget of 1 token, two concurrent queries
// never run simultaneously — the second waits for the first's token.
func TestAdmissionBudget(t *testing.T) {
	srv := newTestServer(t, 30000, Options{CoreBudget: 1})
	defer srv.Close()
	var running, maxRunning atomic.Int64
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := srv.Session()
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			for i := 0; i < 5; i++ {
				cur := running.Add(1)
				if cur > maxRunning.Load() {
					maxRunning.Store(cur)
				}
				// The gauge is approximate (incremented before admission), so
				// assert on the admission controller's own accounting instead.
				if r, _ := srv.adm.load(); int64(r) > 1 {
					errs <- fmt.Errorf("admission reports %d concurrent queries on budget 1", r)
					running.Add(-1)
					return
				}
				if _, err := sess.Query("SELECT grp, COUNT(*) FROM items GROUP BY grp"); err != nil {
					errs <- err
					running.Add(-1)
					return
				}
				running.Add(-1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionsDefaultToSerialPlans: a session that never sets parallelism
// requests one token per query, so concurrent default sessions genuinely run
// side by side inside the core budget instead of each grabbing the whole
// machine and serializing the server.
func TestSessionsDefaultToSerialPlans(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The asserted property — two admitted queries observably running at
		// the same instant — needs at least two CPUs; on a single-core host
		// overlap happens only by preemption luck and the test flakes.
		t.Skip("needs >= 2 CPUs to observe concurrent execution")
	}
	srv := newTestServer(t, 30000, Options{CoreBudget: 4})
	defer srv.Close()
	var maxRunning atomic.Int64
	// Sample the admission load continuously: sampling only at query
	// boundaries undercounts overlap when the host is starved (the full test
	// suite runs packages in parallel on shared runners).
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if r, _ := srv.adm.load(); int64(r) > maxRunning.Load() {
				maxRunning.Store(int64(r))
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := srv.Session()
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			for i := 0; i < 8; i++ {
				if _, err := sess.Query("SELECT grp, COUNT(*) FROM items GROUP BY grp"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopSampling)
	sampler.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if maxRunning.Load() < 2 {
		t.Errorf("default sessions never ran concurrently (max running %d on budget 4)", maxRunning.Load())
	}
}

// TestAdmissionQueueFull: arrivals beyond budget+queue shed load with
// ErrQueueFull instead of buffering unboundedly.
func TestAdmissionQueueFull(t *testing.T) {
	a := newAdmission(1, 1)
	if got, err := a.acquire(context.Background(), 1); err != nil || got != 1 {
		t.Fatalf("first acquire: got %d, %v", got, err)
	}
	// Fill the one queue slot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, 1)
		queued <- err
	}()
	// Wait until the waiter is actually enqueued.
	for {
		if _, q := a.load(); q == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := a.acquire(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire: got %v, want ErrQueueFull", err)
	}
	// Release; the queued waiter gets the token.
	a.release(1)
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.release(1)
	if r, q := a.load(); r != 0 || q != 0 {
		t.Fatalf("load after drain = (%d, %d), want (0, 0)", r, q)
	}
}

// TestAdmissionCancelInQueue: a waiter whose context fires leaves the queue
// and later releases still grant cleanly.
func TestAdmissionCancelInQueue(t *testing.T) {
	a := newAdmission(2, 8)
	if _, err := a.acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.acquire(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled waiter: got %v, want DeadlineExceeded", err)
	}
	a.release(2)
	got, err := a.acquire(context.Background(), 2)
	if err != nil || got != 2 {
		t.Fatalf("post-cancel acquire: got %d, %v", got, err)
	}
}

// TestAdmissionClampsWideRequests: a request wider than the budget runs at
// the budget, not never.
func TestAdmissionClampsWideRequests(t *testing.T) {
	a := newAdmission(2, 8)
	got, err := a.acquire(context.Background(), 16)
	if err != nil || got != 2 {
		t.Fatalf("acquire(16) on budget 2: got %d, %v", got, err)
	}
	a.release(got)
}

// TestSessionTimeout: a session timeout cancels a query stuck behind an
// exhausted budget.
func TestSessionTimeout(t *testing.T) {
	srv := newTestServer(t, 1000, Options{CoreBudget: 1})
	defer srv.Close()
	// Hold the only token.
	if _, err := srv.adm.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetTimeout(20 * time.Millisecond)
	start := time.Now()
	_, err = sess.Query("SELECT COUNT(*) FROM items")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	srv.adm.release(1)
	if got := srv.Metrics().Canceled; got != 1 {
		t.Errorf("metrics counted %d cancellations, want 1", got)
	}
}

// TestServerClose: a closed server refuses new work but drained cleanly.
func TestServerClose(t *testing.T) {
	srv := newTestServer(t, 1000, Options{})
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query("SELECT COUNT(*) FROM items"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query("SELECT COUNT(*) FROM items"); !errors.Is(err, ErrServerClosed) {
		t.Errorf("query after close: got %v, want ErrServerClosed", err)
	}
	if _, err := srv.Session(); !errors.Is(err, ErrServerClosed) {
		t.Errorf("session after close: got %v, want ErrServerClosed", err)
	}
}

// TestStartsWithSelect pins the statement classifier Execute uses in place
// of a throwaway parse.
func TestStartsWithSelect(t *testing.T) {
	yes := []string{
		"SELECT 1",
		"  \n\tselect a FROM t",
		"-- comment\nSELECT a FROM t",
		"--c1\n  --c2\nSeLeCt 1",
	}
	no := []string{
		"INSERT INTO t VALUES (1)",
		"CREATE TABLE t (a INT)",
		"selective FROM t", // identifier, not the keyword
		"-- select inside a comment",
		"",
	}
	for _, q := range yes {
		if !startsWithSelect(q) {
			t.Errorf("startsWithSelect(%q) = false, want true", q)
		}
	}
	for _, q := range no {
		if startsWithSelect(q) {
			t.Errorf("startsWithSelect(%q) = true, want false", q)
		}
	}
}

// TestExecuteAfterClose: the DDL/DML path refuses work after Close just
// like the query path (it must not race Close's inflight wait).
func TestExecuteAfterClose(t *testing.T) {
	srv := newTestServer(t, 100, Options{})
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("INSERT INTO items (id, grp, amount) VALUES (900, 1, 1.0)"); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Execute after close: got %v, want ErrServerClosed", err)
	}
}

// TestWireQueryHitsPlanCache: an ad-hoc statement over the wire reaches the
// plan cache — the classifier must not burn a parse that defeats it.
func TestWireQueryHitsPlanCache(t *testing.T) {
	srv := newTestServer(t, 1000, Options{})
	defer srv.Close()
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	q := "SELECT grp, COUNT(*) FROM items GROUP BY grp"
	if _, err := sess.Execute(q); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCached {
		t.Error("repeated ad-hoc Execute missed the plan cache")
	}
}

// TestWireProtocol drives the full TCP loop: ad-hoc queries, prepared
// statements, session knobs, metrics, ping and close.
func TestWireProtocol(t *testing.T) {
	srv := newTestServer(t, 1000, Options{})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	roundTrip := dialWire(t, l.Addr().String())

	if resp := roundTrip(Request{Op: "ping"}); !resp.OK {
		t.Fatalf("ping failed: %s", resp.Error)
	}
	resp := roundTrip(Request{Op: "query", SQL: "SELECT grp, COUNT(*) FROM items GROUP BY grp"})
	if !resp.OK || resp.RowCount != 9 || len(resp.Rows) != 9 {
		t.Fatalf("query: ok=%v rows=%d err=%s", resp.OK, resp.RowCount, resp.Error)
	}
	if len(resp.Columns) != 2 {
		t.Fatalf("query returned %d columns", len(resp.Columns))
	}
	if resp := roundTrip(Request{Op: "prepare", Name: "q", SQL: "SELECT COUNT(*) FROM items WHERE amount > 100"}); !resp.OK {
		t.Fatalf("prepare failed: %s", resp.Error)
	}
	first := roundTrip(Request{Op: "exec", Name: "q"})
	second := roundTrip(Request{Op: "exec", Name: "q"})
	if !first.OK || !second.OK {
		t.Fatalf("exec failed: %s / %s", first.Error, second.Error)
	}
	if !second.Cached {
		t.Error("second prepared exec over the wire did not report a cached plan")
	}
	par, ms := 2, 1000
	if resp := roundTrip(Request{Op: "set", Parallelism: &par, TimeoutMS: &ms}); !resp.OK {
		t.Fatalf("set failed: %s", resp.Error)
	}
	if resp := roundTrip(Request{Op: "query", SQL: "SELECT 'nope' FROM missing"}); resp.OK || resp.Error == "" {
		t.Error("querying a missing table did not report an error")
	}
	m := roundTrip(Request{Op: "metrics"})
	if !m.OK || m.Metrics == nil {
		t.Fatalf("metrics failed: %s", m.Error)
	}
	if m.Metrics.Queries != 3 { // 1 ad-hoc query + 2 prepared execs; errors don't count
		t.Errorf("wire metrics report %d queries, want 3", m.Metrics.Queries)
	}
	if m.Metrics.Errors != 1 {
		t.Errorf("wire metrics report %d errors, want 1", m.Metrics.Errors)
	}
	if w := m.Metrics; w.MaxUS <= 0 || w.P50US > w.P95US || w.P95US > w.P99US || w.P99US > w.MaxUS {
		t.Errorf("wire latency p50=%d p95=%d p99=%d max=%d us, want ascending and a positive max", w.P50US, w.P95US, w.P99US, w.MaxUS)
	}
	if m.Metrics.Sessions != 1 {
		t.Errorf("wire metrics report %d sessions, want 1", m.Metrics.Sessions)
	}
	if resp := roundTrip(Request{Op: "close"}); !resp.OK {
		t.Fatalf("close failed: %s", resp.Error)
	}

	// Graceful shutdown unblocks Serve with a nil error.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// dialWire connects to a serving address and returns a function that sends
// one request and reads its reply. The connection closes with the test.
func dialWire(t *testing.T, addr string) func(Request) Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	return func(req Request) Response {
		t.Helper()
		b, _ := json.Marshal(req)
		if _, err := conn.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
}

// TestWireUnterminatedHintIsAnError: a statement whose OPTION hint list runs
// to the end of the text, sent as a query and as a prepare, gets an error
// reply, and the next statement on the same connection still runs. The
// parser used to loop at the end of such a text, growing memory until the
// process died.
func TestWireUnterminatedHintIsAnError(t *testing.T) {
	srv := newTestServer(t, 100, Options{})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	roundTrip := dialWire(t, l.Addr().String())
	const hang = "SELECT a FROM t OPTION(x"
	for _, req := range []Request{
		{Op: "query", SQL: hang},
		{Op: "prepare", Name: "h", SQL: hang},
	} {
		if resp := roundTrip(req); resp.OK || !strings.Contains(resp.Error, "OPTION") {
			t.Errorf("%s %q: ok=%v error=%q, want a parse error naming OPTION", req.Op, req.SQL, resp.OK, resp.Error)
		}
		resp := roundTrip(Request{Op: "query", SQL: "SELECT COUNT(*) FROM items"})
		if !resp.OK || len(resp.Rows) != 1 || resp.Rows[0][0] != float64(100) {
			t.Fatalf("statement after the failed %s: ok=%v rows=%v error=%q", req.Op, resp.OK, resp.Rows, resp.Error)
		}
	}
}

// TestWireDDL: the wire protocol accepts DDL and INSERT, which invalidate
// the plan cache.
func TestWireDDL(t *testing.T) {
	srv := newTestServer(t, 100, Options{})
	defer srv.Close()
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Execute("INSERT INTO items (id, grp, amount) VALUES (5000, 1, 3.5)"); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query("SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 101 {
		t.Errorf("count after wire INSERT = %d, want 101", got)
	}
}

// TestConcurrentServerSessions is the in-package concurrency smoke (the full
// workload differential lives in the bench package): 8 sessions, mixed
// parallelism and prepared/ad-hoc, all results identical.
func TestConcurrentServerSessions(t *testing.T) {
	srv := newTestServer(t, 30000, Options{CoreBudget: 4})
	defer srv.Close()
	q := "SELECT grp, COUNT(*), SUM(amount) FROM items WHERE amount > 50 GROUP BY grp"
	want, err := srv.Engine().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := srv.Session()
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			sess.SetParallelism([]int{1, 2, 4}[i%3])
			prepared := i%2 == 0
			if prepared {
				if err := sess.Prepare("q", q); err != nil {
					errs <- err
					return
				}
			}
			for iter := 0; iter < 10; iter++ {
				var res *engine.Result
				var err error
				if prepared {
					res, err = sess.ExecPrepared("q")
				} else {
					res, err = sess.Query(q)
				}
				if err != nil {
					errs <- fmt.Errorf("session %d iter %d: %w", i, iter, err)
					return
				}
				if msg := rowsEqual(res.Rows, want.Rows); msg != "" {
					errs <- fmt.Errorf("session %d iter %d: %s", i, iter, msg)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.Queries != sessions*10 {
		t.Errorf("metrics counted %d queries, want %d", m.Queries, sessions*10)
	}
	if m.PlanCache.Hits == 0 {
		t.Error("no plan-cache hits across 80 executions of one statement")
	}
}

// rowsEqual compares result sets exactly for ints/strings and to 1e-9
// relative tolerance for floats (parallel aggregation folds partials in
// morsel order, which can differ from serial rounding).
func rowsEqual(got, want [][]value.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: got %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			g, w := got[i][j], want[i][j]
			if g.Kind == value.KindFloat && w.Kind == value.KindFloat {
				diff := g.F - w.F
				if diff < 0 {
					diff = -diff
				}
				mag := w.F
				if mag < 0 {
					mag = -mag
				}
				if diff > 1e-9*(1+mag) {
					return fmt.Sprintf("row %d col %d: %v != %v", i, j, g, w)
				}
				continue
			}
			if value.Compare(g, w) != 0 || !strings.EqualFold(g.String(), w.String()) {
				return fmt.Sprintf("row %d col %d: %v != %v", i, j, g, w)
			}
		}
	}
	return ""
}
