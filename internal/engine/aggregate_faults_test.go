package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"oldelephant/internal/exec"
	"oldelephant/internal/expr"
	"oldelephant/internal/plan"
	"oldelephant/internal/value"
)

// TestParallelSumOverflowIsAnError: SUM over a BIGINT column holding
// 9223372036854775807, 1 and 5 used to wrap to -9223372036854775803; the
// statement now fails with exec.ErrSumOverflow. It does so serially, at
// Parallelism 2 (the rows are padded with zeros until the scan splits) and
// over run-length encoded input (the column is the clustered key, so the
// scan emits runs and a run folds as one multiply), in the row engine too.
func TestParallelSumOverflowIsAnError(t *testing.T) {
	rows := [][]value.Value{
		{value.NewInt(0), value.NewInt(0), value.NewInt(math.MaxInt64)},
		{value.NewInt(1), value.NewInt(0), value.NewInt(1)},
		{value.NewInt(2), value.NewInt(0), value.NewInt(5)},
	}
	for i := 3; i < 20000; i++ {
		rows = append(rows, []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 3)), value.NewInt(0)})
	}
	// Two rows of 2^62 sort next to each other in xk: one run, 2^62 × 2.
	runs := [][]value.Value{{value.NewInt(0), value.NewInt(1 << 62)}, {value.NewInt(1), value.NewInt(1 << 62)}}
	for i := 2; i < 20000; i++ {
		runs = append(runs, []value.Value{value.NewInt(int64(i)), value.NewInt(0)})
	}
	for _, opts := range []Options{{Parallelism: 1}, {Parallelism: 2}, {DisableVectorized: true}} {
		e := New(opts)
		for _, s := range []string{
			"CREATE TABLE t (id INT, g INT, x BIGINT, PRIMARY KEY (id))",
			"CREATE TABLE xk (id INT, x BIGINT, PRIMARY KEY (x))",
		} {
			if _, err := e.Execute(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.BulkLoad("t", rows); err != nil {
			t.Fatal(err)
		}
		if err := e.BulkLoad("xk", runs); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			"SELECT SUM(x) FROM t",
			"SELECT g, SUM(x) FROM t GROUP BY g",
			"SELECT SUM(x) FROM xk",
			"SELECT x, SUM(x) FROM xk GROUP BY x OPTION(HASH AGG)",
			"SELECT x, SUM(x) FROM xk GROUP BY x",
		} {
			res, err := e.Query(q)
			if !errors.Is(err, exec.ErrSumOverflow) {
				var got any = err
				if err == nil {
					got = res.Rows
				}
				t.Errorf("%+v: %s = %v, want ErrSumOverflow", opts, q, got)
			}
		}
		// The engine goes on answering, and a sum that fits is exact.
		res, err := e.Query("SELECT SUM(x) FROM t WHERE id > 0")
		if err != nil || res.Rows[0][0] != value.NewInt(6) {
			t.Errorf("%+v: SUM(x) over the rest = %v, %v; want 6", opts, res, err)
		}
	}
}

// panickingPipe is a morsel pipeline stage that panics on its first batch.
type panickingPipe struct{ exec.Operator }

func (panickingPipe) NextBatch() (*exec.Batch, bool, error) { panic("injected worker fault") }

// TestParallelWorkerPanicIsAQueryError runs a morsel-parallel hash
// aggregate whose pipeline panics on one morsel through the engine's
// execution path: the query fails with an error naming the operator and
// the morsel, the process survives, and the same engine answers the next
// query at Parallelism 2.
func TestParallelWorkerPanicIsAQueryError(t *testing.T) {
	e := New(Options{Parallelism: 2})
	if _, err := e.Execute("CREATE TABLE t (id INT, g INT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	var rows [][]value.Value
	for i := 0; i < 50000; i++ {
		rows = append(rows, []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 7))})
	}
	if err := e.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	var morsels atomic.Int32
	pipe := func(src exec.Operator) exec.Operator {
		if morsels.Add(1) == 2 {
			return panickingPipe{src}
		}
		return src
	}
	aggs := []exec.AggSpec{{Kind: exec.AggCountStar, Name: "n"}, {Kind: exec.AggSum, Arg: expr.NewColumn(0, "id"), Name: "s"}}
	par, ok := exec.NewParallelHashAggregate(exec.NewSeqScan(tbl, []int{0, 1}), pipe, []int{1}, aggs, 2)
	if !ok {
		t.Fatal("the scan did not split into morsels")
	}
	e.stateMu.RLock()
	_, err = e.executePlan(context.Background(), &plan.Plan{Root: par}, e.pager.Stats())
	e.stateMu.RUnlock()
	if err == nil || !strings.Contains(err.Error(), "ParallelHashAggregate worker panicked on morsel") ||
		!strings.Contains(err.Error(), "injected worker fault") {
		t.Fatalf("err = %v, want the worker's panic as an error", err)
	}
	res, err := e.Query("SELECT g, COUNT(*) FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "parallel 2") || len(res.Rows) != 7 || res.Rows[0][1] != value.NewInt(7143) {
		t.Fatalf("next query: plan %s, rows %v", res.Plan, res.Rows)
	}
}
