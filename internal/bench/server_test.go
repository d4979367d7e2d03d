package bench

import (
	"fmt"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/server"
)

// servingWorkload resolves the SQL of the full 7-query workload across the
// row-engine strategies (Row, Row(MV), Row(Col)) at the given selectivity —
// the statement mix the serving differential replays from every session.
type servedQuery struct {
	name string
	sql  string
}

func servingWorkload(t *testing.T, h *Harness, sel float64) []servedQuery {
	t.Helper()
	var out []servedQuery
	for _, q := range Queries() {
		spec := h.specs()[q]
		query, _, _ := spec.resolve(h, sel)
		for _, strat := range []Strategy{StrategyRow, StrategyRowMV, StrategyRowCol} {
			sqlText, err := h.strategySQL(q, spec, strat, query)
			if err != nil {
				t.Fatalf("%s under %s: %v", q, strat, err)
			}
			out = append(out, servedQuery{name: fmt.Sprintf("%s/%s", q, strat), sql: sqlText})
		}
	}
	return out
}

// TestConcurrentServingDifferential is the serving-correctness differential:
// 8 concurrent sessions replay the full 7-query workload under all three SQL
// strategies — mixed prepared/ad-hoc, mixed per-session parallelism — and
// every result must equal the serial single-caller engine's (exact rows;
// floats to 1e-9, since parallel aggregation folds partials in morsel
// order). It runs over one shared engine with the plan cache on, so plan
// leasing, admission, seek/scan morsels and the reader-shared catalog are
// all exercised at once; the -race CI leg runs it under the race detector.
func TestConcurrentServingDifferential(t *testing.T) {
	h := cachedHarness(t, func(*Config) {})
	const sel = 0.1
	workload := servingWorkload(t, h, sel)

	// Serial expectations from the same engine, single-caller.
	expected := make(map[string][]exec.Row, len(workload))
	for _, wq := range workload {
		res, err := h.Engine.Query(wq.sql)
		if err != nil {
			t.Fatalf("serial %s: %v", wq.name, err)
		}
		expected[wq.name] = res.Rows
	}

	srv := server.New(h.Engine, server.Options{CoreBudget: 8})
	defer srv.Close()

	const sessions = 8
	const rounds = 2
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
			// Mixed parallelism: serial, two-worker and four-worker sessions
			// side by side on one shared engine.
			sess.SetParallelism([]int{1, 2, 4, 1}[i%4])
			prepared := i%2 == 0
			if prepared {
				for _, wq := range workload {
					if err := sess.Prepare(wq.name, wq.sql); err != nil {
						errs <- fmt.Errorf("session %d prepare %s: %w", i, wq.name, err)
						return
					}
				}
			}
			for r := 0; r < rounds; r++ {
				for _, wq := range workload {
					var res *engine.Result
					var err error
					if prepared {
						res, err = sess.ExecPrepared(wq.name)
					} else {
						res, err = sess.Query(wq.sql)
					}
					if err != nil {
						errs <- fmt.Errorf("session %d %s: %w", i, wq.name, err)
						return
					}
					if msg := sortedRowsApproxEqual(res.Rows, expected[wq.name]); msg != "" {
						errs <- fmt.Errorf("session %d %s diverged from serial engine: %s", i, wq.name, msg)
						return
					}
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
	wantQueries := int64(sessions * rounds * len(workload))
	if m.Queries != wantQueries {
		t.Errorf("server metrics counted %d queries, want %d", m.Queries, wantQueries)
	}
	if m.Errors != 0 || m.Rejected != 0 || m.Canceled != 0 {
		t.Errorf("serving differential recorded errors=%d rejected=%d canceled=%d",
			m.Errors, m.Rejected, m.Canceled)
	}
	if m.PlanCache.Hits == 0 {
		t.Error("no plan-cache hits across the replayed workload")
	}
}
