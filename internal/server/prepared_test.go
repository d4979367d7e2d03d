package server

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/sql"
)

// seekTexts returns n distinct point-seek statements over newTestServer's
// items table and a statement name for each.
func seekTexts(n int) (names, texts []string) {
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("seek%d", i))
		texts = append(texts, fmt.Sprintf("SELECT id, grp, amount FROM items WHERE id = %d AND grp >= 0 AND amount < 1000", i))
	}
	return names, texts
}

// liveHeap is the heap in use once everything unreachable is collected.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// prepareSessions opens n sessions that each prepare every text, each
// session sending its own copy of the text as a wire client does, and
// returns them with the live-heap growth they caused.
func prepareSessions(t *testing.T, srv *Server, n int, names, texts []string) ([]*Session, int64) {
	t.Helper()
	before := liveHeap()
	var sessions []*Session
	for i := 0; i < n; i++ {
		sess, err := srv.Session()
		if err != nil {
			t.Fatal(err)
		}
		for j, text := range texts {
			if err := sess.Prepare(names[j], strings.Clone(text)); err != nil {
				t.Fatal(err)
			}
		}
		sessions = append(sessions, sess)
	}
	return sessions, int64(liveHeap()) - int64(before)
}

// TestPreparedHandlesAreShared: sessions that prepare the same texts share
// one handle per text, the engine's table holds exactly the texts some
// session still references, and the heap grows with the statements, not
// with sessions × statements.
func TestPreparedHandlesAreShared(t *testing.T) {
	srv := newTestServer(t, 1000, Options{})
	defer srv.Close()
	eng := srv.Engine()
	names, texts := seekTexts(1024)

	one, growthOne := prepareSessions(t, srv, 1, names, texts)
	if n := eng.PreparedStatements(); n != len(texts) {
		t.Fatalf("one session: engine holds %d prepared statements, want %d", n, len(texts))
	}
	one[0].Close()
	runtime.GC()
	if n := eng.PreparedStatements(); n != 0 {
		t.Fatalf("after the only session closed the engine holds %d prepared statements, want 0", n)
	}

	const sessions = 8
	all, growthAll := prepareSessions(t, srv, sessions, names, texts)
	if n := eng.PreparedStatements(); n != len(texts) {
		t.Fatalf("%d sessions: engine holds %d prepared statements, want %d", sessions, n, len(texts))
	}
	for _, sess := range all[1:] {
		for _, name := range names {
			if sess.prepared[name] != all[0].prepared[name] {
				t.Fatalf("sessions %d and %d hold different handles for %s", all[0].ID(), sess.ID(), name)
			}
		}
	}
	t.Logf("live heap growth: %d B with 1 session, %d B with %d sessions", growthOne, growthAll, sessions)
	if float64(growthAll) > 1.5*float64(growthOne) {
		t.Errorf("heap grew %d B for %d sessions against %d B for one: want at most 1.5×", growthAll, sessions, growthOne)
	}

	// Re-preparing a name under a different text lets go of the old handle
	// once no session holds it.
	const other = "SELECT COUNT(*) FROM items"
	if err := all[0].Prepare(names[0], other); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if n := eng.PreparedStatements(); n != len(texts)+1 {
		t.Fatalf("with %s still held elsewhere: %d prepared statements, want %d", names[0], n, len(texts)+1)
	}
	for _, sess := range all[1:] {
		if err := sess.Prepare(names[0], other); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if n := eng.PreparedStatements(); n != len(texts) {
		t.Fatalf("after every session re-prepared %s: %d prepared statements, want %d", names[0], n, len(texts))
	}
	res, err := all[3].ExecPrepared(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 1000 {
		t.Fatalf("re-prepared %s counted %d rows, want 1000", names[0], got)
	}

	for _, sess := range all {
		sess.Close()
	}
	runtime.GC()
	if n := eng.PreparedStatements(); n != 0 {
		t.Fatalf("after every session closed the engine holds %d prepared statements, want 0", n)
	}
}

// TestConcurrentPrepareAndClose races sessions that prepare overlapping
// texts, execute them, re-prepare and close, with collections in between,
// against each other: every execution answers its own text, and once all
// sessions are closed the engine holds no prepared statement.
func TestConcurrentPrepareAndClose(t *testing.T) {
	srv := newTestServer(t, 1000, Options{})
	defer srv.Close()
	_, texts := seekTexts(48)
	const workers, rounds, perSession = 8, 12, 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check := func(sess *Session, name string, id int) error {
				res, err := sess.ExecPrepared(name)
				if err != nil {
					return err
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(id) {
					return fmt.Errorf("%s on session %d: rows %v, want id %d", name, sess.ID(), res.Rows, id)
				}
				return nil
			}
			for r := 0; r < rounds; r++ {
				sess, err := srv.Session()
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < perSession; i++ {
					id := (w*5 + r*3 + i) % len(texts)
					name := fmt.Sprintf("q%d", i%4) // names are re-prepared under new texts
					if err := sess.Prepare(name, strings.Clone(texts[id])); err != nil {
						errs <- err
						return
					}
					if err := check(sess, name, id); err != nil {
						errs <- err
						return
					}
				}
				if r%4 == w%4 {
					runtime.GC() // drop the handles of sessions closed so far
				}
				sess.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	runtime.GC()
	if n := srv.Engine().PreparedStatements(); n != 0 {
		t.Fatalf("after every session closed the engine holds %d prepared statements, want 0", n)
	}
}

// TestServingAllocations pins what a warm statement allocates on the serving
// path. The workload record takes its fingerprint and plan hash from the
// engine's result instead of normalizing the text again and hashing the plan
// text into a fresh string, which took a warm prepared execution from 39
// allocations and a cached ad-hoc query from 46; the bounds hold each at
// least two below that.
func TestServingAllocations(t *testing.T) {
	srv := newTestServer(t, 1000, Options{})
	defer srv.Close()
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	const seek = "SELECT grp, amount FROM items WHERE id = 42"
	if err := sess.Prepare("seek", seek); err != nil {
		t.Fatal(err)
	}
	const adhoc = "SELECT COUNT(*) FROM items WHERE id < 100"
	for i := 0; i < 2; i++ { // compile and cache both plans
		if _, err := sess.ExecPrepared("seek"); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Query(adhoc); err != nil {
			t.Fatal(err)
		}
	}
	prepared := testing.AllocsPerRun(100, func() { sess.ExecPrepared("seek") })
	cached := testing.AllocsPerRun(100, func() { sess.Query(adhoc) })
	t.Logf("allocations: %.0f per warm prepared execution, %.0f per cached ad-hoc query", prepared, cached)
	if prepared > 37 {
		t.Errorf("warm prepared execution allocates %.0f times, want at most 37", prepared)
	}
	if cached > 44 {
		t.Errorf("cached ad-hoc query allocates %.0f times, want at most 44", cached)
	}
}

// TestWorkloadRecordFormatUnchanged: taking the fingerprint and plan hash
// from the engine leaves every record as it was — the fingerprint is
// sql.Normalize of the statement text and the plan hash the FNV-1a of its
// plan text, byte for byte.
func TestWorkloadRecordFormatUnchanged(t *testing.T) {
	srv := newTestServer(t, 500, Options{})
	defer srv.Close()
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Prepare("bygrp", "SELECT grp, COUNT(*)\n FROM items -- per group\n GROUP BY grp;"); err != nil {
		t.Fatal(err)
	}
	steps := []struct{ op, sql string }{
		{"exec", "bygrp"},
		{"exec", "bygrp"},
		{"query", "SELECT  COUNT(*) FROM Items WHERE id < 100"},
		{"query", "select count(*) from items where id < 100"},
		{"execute", "EXPLAIN ANALYZE SELECT grp, SUM(amount) FROM items WHERE amount > 50 GROUP BY grp"},
		{"execute", "EXPLAIN SELECT amount FROM items WHERE id = 7"},
		{"execute", "INSERT INTO items (id, grp, amount) VALUES (9001, 1, 2.5)"},
		{"execute", "CREATE TABLE Extra (k INT, PRIMARY KEY (k))"},
	}
	var plans []string
	for _, step := range steps {
		var res *engine.Result
		var err error
		switch step.op {
		case "exec":
			res, err = sess.ExecPrepared(step.sql)
		case "query":
			res, err = sess.Query(step.sql)
		default:
			res, err = sess.Execute(step.sql)
		}
		if err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
		plans = append(plans, res.Plan)
	}
	recs := srv.Workload(0)
	if len(recs) != len(plans) {
		t.Fatalf("ring holds %d records, want %d", len(recs), len(plans))
	}
	for i, rec := range recs {
		if want := sql.Normalize(rec.SQL); rec.Fingerprint != want {
			t.Errorf("record %d (%q): fingerprint %q, want sql.Normalize's %q", i, rec.SQL, rec.Fingerprint, want)
		}
		want := ""
		if plans[i] != "" {
			h := fnv.New64a()
			h.Write([]byte(plans[i]))
			want = fmt.Sprintf("%016x", h.Sum64())
		}
		if rec.PlanHash != want {
			t.Errorf("record %d (%q): plan hash %q, want %q", i, rec.SQL, rec.PlanHash, want)
		}
	}
	if recs[2].Fingerprint != recs[3].Fingerprint {
		t.Errorf("case/whitespace variants fingerprint differently: %q, %q", recs[2].Fingerprint, recs[3].Fingerprint)
	}
}
