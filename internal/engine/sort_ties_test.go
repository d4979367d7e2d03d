package engine

import (
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/value"
)

// TestParallelOrderByTiesAndNulls: an ORDER BY … DESC over columns of few
// values, NULLs among them, under a LIMIT returns the same rows in the same
// order at P=1 and P=2 and from the row-at-a-time engine: rows that tie on
// every sort column keep the order the scan reads them in, whichever worker
// read them. The windows straddle the last non-NULL rows, which a DESC key
// puts last.
func TestParallelOrderByTiesAndNulls(t *testing.T) {
	rows := make([][]value.Value, 30000)
	for i := range rows {
		g := value.NewInt(int64(i % 7))
		if i%5 == 0 {
			g = value.Null()
		}
		rows[i] = []value.Value{value.NewInt(int64(i)), g, value.NewFloat(float64(i%3) - 1)}
	}
	queries := []string{
		"SELECT id, g FROM t ORDER BY g DESC LIMIT 100 OFFSET 23950",
		"SELECT id, g, f FROM t WHERE id > 10 ORDER BY f DESC, g DESC LIMIT 700 OFFSET 7700",
		"SELECT g, f, id FROM t ORDER BY g, f DESC LIMIT 500",
	}
	var want []string
	for _, opts := range []Options{{DisableVectorized: true}, {Parallelism: 1}, {Parallelism: 2}} {
		e := New(opts)
		execAll(t, e, "CREATE TABLE t (id INT, g INT, f DOUBLE, PRIMARY KEY (id))")
		if err := e.BulkLoad("t", rows); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("%+v: %s: %v", opts, q, err)
			}
			if opts.Parallelism == 2 && !strings.Contains(res.Plan, "parallel") {
				t.Fatalf("%s: plan %s is not parallel", q, res.Plan)
			}
			got := fmt.Sprint(res.Rows)
			if len(want) <= i {
				want = append(want, got)
			} else if got != want[i] {
				t.Errorf("%+v: %s: rows differ from the row engine's\n got %.300s\nwant %.300s", opts, q, got, want[i])
			}
		}
	}
}
