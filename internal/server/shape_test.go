package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

// wideEngine holds a table whose rows are wide enough that a point lookup
// seeks its clustered key rather than scanning it.
func wideEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Options{})
	if _, err := e.Execute("CREATE TABLE wide (id INT, n INT, pad VARCHAR(500), PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 4000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i * 7 % 13)), value.NewString(strings.Repeat("w", 400))}
	}
	if err := e.BulkLoad("wide", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConcurrentSessionsBindOneShape: two sessions execute point lookups of
// one shape with different keys — leasing the shape's shared plan, binding
// their own key into it, or replanning the shape when the other holds the
// idle instance — at one worker and at two, while a third session INSERTs
// into the same table, each INSERT emptying the plan cache and splitting
// leaves under the seeks. Every answer equals a fresh engine's.
func TestConcurrentSessionsBindOneShape(t *testing.T) {
	const seekFmt = "SELECT id, n FROM wide WHERE id = %d"
	fresh := wideEngine(t)
	want := make(map[int]string)
	for k := 0; k < 4000; k += 7 {
		res, err := fresh.QueryWith(engine.QueryOptions{NoCache: true}, fmt.Sprintf(seekFmt, k))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan, "ClusteredSeek(wide") {
			t.Fatalf("plan %s, want a clustered seek", res.Plan)
		}
		want[k] = fmt.Sprint(res.Rows)
	}
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			srv := New(wideEngine(t), Options{CoreBudget: 4})
			defer srv.Close()
			var wg sync.WaitGroup
			errs := make(chan error, 3)
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					sess, err := srv.Session()
					if err != nil {
						errs <- err
						return
					}
					defer sess.Close()
					sess.SetParallelism(par)
					for round := 0; round < 3; round++ {
						for k := r * 7; k < 4000; k += 14 {
							name := fmt.Sprint(k)
							if round == 0 {
								if err := sess.Prepare(name, fmt.Sprintf(seekFmt, k)); err != nil {
									errs <- err
									return
								}
							}
							res, err := sess.ExecPrepared(name)
							if err != nil {
								errs <- err
								return
							}
							if got := fmt.Sprint(res.Rows); got != want[k] {
								errs <- fmt.Errorf("session %d, key %d: %s, want %s", r, k, got, want[k])
								return
							}
						}
					}
				}(r)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess, err := srv.Session()
				if err != nil {
					errs <- err
					return
				}
				defer sess.Close()
				for i := 0; i < 150; i++ {
					stmt := fmt.Sprintf("INSERT INTO wide VALUES (%d, %d, '%s')", 4000+i, i, strings.Repeat("x", 400))
					if _, err := sess.Execute(stmt); err != nil {
						errs <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if s := srv.Engine().PlanCacheStats(); s.Hits == 0 {
				t.Error("no execution leased the shared plan")
			}
		})
	}
}
