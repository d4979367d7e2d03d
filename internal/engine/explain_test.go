package engine

import (
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// traceTestEngine builds an engine with one populated table.
func traceTestEngine(t *testing.T, rows int) *Engine {
	return traceTestEngineWith(t, Options{}, rows)
}

func traceTestEngineWith(t *testing.T, opts Options, rows int) *Engine {
	t.Helper()
	e := New(opts)
	if _, err := e.Execute("CREATE TABLE t (id INT, grp INT, amount FLOAT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	data := make([][]value.Value, rows)
	for i := range data {
		data[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 7)),
			value.NewFloat(float64(i % 100)),
		}
	}
	if err := e.BulkLoad("t", data); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTraceExplainPlanOnly(t *testing.T) {
	e := traceTestEngine(t, 100)
	res, err := e.Execute("EXPLAIN SELECT grp, COUNT(*) FROM t WHERE amount > 50 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("plain EXPLAIN produced a trace")
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v", res.Columns)
	}
	text := resultText(res)
	for _, want := range []string{"Scan", "Filter"} {
		if !strings.Contains(text, want) {
			t.Errorf("plan text missing %q:\n%s", want, text)
		}
	}
	// Plain EXPLAIN must not execute: no annotation or summary lines.
	if strings.Contains(text, "rows=") || strings.Contains(text, "Execution time") {
		t.Errorf("plain EXPLAIN leaked execution annotations:\n%s", text)
	}
}

// TestExplainAnalyzeEstimateBesideActual: EXPLAIN ANALYZE's summary line
// prints the run's reads by class and, for a single-table plan, the planner's
// cold estimate beside them; a join has no single access path to estimate.
// Serial, so the scan's reads form one stream.
func TestExplainAnalyzeEstimateBesideActual(t *testing.T) {
	e := traceTestEngineWith(t, Options{Parallelism: 1}, 20000)
	e.ResetBufferPool()
	res, err := e.Execute("EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM t GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	io, est := res.Stats.IO, res.EstPages
	if io.RandReads != 1 || io.SeqReads == 0 || est == nil {
		t.Fatalf("cold scan read %+v, estimate %+v", io, est)
	}
	summary := res.Rows[len(res.Rows)-1][0].S
	for _, want := range []string{
		fmt.Sprintf("page reads: %d (seq %d, rand 1)", io.PageReads, io.SeqReads),
		fmt.Sprintf("estimated cold: seq %.1f, rand 1.0", est.Seq),
	} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary %q lacks %q", summary, want)
		}
	}
	measured := float64(io.SeqReads) + storage.RandomReadCost*float64(io.RandReads)
	if q := max(est.Cost()/measured, measured/est.Cost()); q > 1.5 {
		t.Errorf("scan estimate %+v vs measured %+v: q-error %.2f", est, io, q)
	}
	join, err := e.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t a, t b WHERE a.id = b.id")
	if err != nil {
		t.Fatal(err)
	}
	if summary := join.Rows[len(join.Rows)-1][0].S; join.EstPages != nil || strings.Contains(summary, "estimated") {
		t.Errorf("join carries an access-path estimate: %q", summary)
	}
}

func TestTraceExplainAnalyzeAnnotations(t *testing.T) {
	e := traceTestEngine(t, 300)
	res, err := e.Execute("EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM t WHERE amount >= 50 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("EXPLAIN ANALYZE produced no trace")
	}
	text := resultText(res)
	if !strings.Contains(text, "rows=") || !strings.Contains(text, "Execution time:") {
		t.Fatalf("EXPLAIN ANALYZE output lacks annotations:\n%s", text)
	}
	// The scan leaf saw every row; the root emitted one row per group.
	if got := res.Trace.LeafRows(); got != 300 {
		t.Fatalf("trace leaf rows = %d, want 300", got)
	}
	if got := res.Trace.Rows; got != 7 {
		t.Fatalf("trace root rows = %d, want 7 groups", got)
	}
}

// TestTraceExplainAnalyzeMatchesUntraced is the per-query identity proof:
// the traced execution must return exactly the rows an untraced run returns,
// with the root span's cardinality equal to the result's.
func TestTraceExplainAnalyzeMatchesUntraced(t *testing.T) {
	e := traceTestEngine(t, 500)
	queries := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT grp, SUM(amount) FROM t WHERE amount > 25 GROUP BY grp",
		"SELECT id, amount FROM t WHERE id >= 100 AND id < 120",
		"SELECT id, grp, amount FROM t ORDER BY amount DESC, id LIMIT 13",
	}
	for _, q := range queries {
		plain, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		traced, err := e.QueryWith(QueryOptions{Trace: true}, q)
		if err != nil {
			t.Fatalf("traced %s: %v", q, err)
		}
		if traced.Trace == nil {
			t.Fatalf("%s: no trace", q)
		}
		if got, want := fmt.Sprint(traced.Rows), fmt.Sprint(plain.Rows); got != want {
			t.Errorf("%s: traced result differs:\n%s\n%s", q, got, want)
		}
		if got, want := traced.Trace.Rows, int64(len(plain.Rows)); got != want {
			t.Errorf("%s: root span rows=%d, result has %d", q, got, want)
		}
	}
}

// TestTraceDoesNotPolluteCache proves traced executions bypass the plan
// cache in both directions: they neither hit a cached plan nor deposit an
// instrumented one for later untraced runs.
func TestTraceDoesNotPolluteCache(t *testing.T) {
	e := New(Options{})
	e.plans = newPlanCache(16)
	if _, err := e.Execute("CREATE TABLE t (id INT, amount FLOAT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	data := make([][]value.Value, 50)
	for i := range data {
		data[i] = []value.Value{value.NewInt(int64(i)), value.NewFloat(float64(i))}
	}
	if err := e.BulkLoad("t", data); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*) FROM t WHERE amount > 10"
	// Warm the cache, then confirm a traced run doesn't count as a hit.
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	before := e.PlanCacheStats()
	traced, err := e.QueryWith(QueryOptions{Trace: true}, q)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Stats.PlanCached {
		t.Fatal("traced run reported a plan-cache hit")
	}
	after := e.PlanCacheStats()
	if after.Hits != before.Hits {
		t.Fatalf("traced run consumed a cached plan: hits %d -> %d", before.Hits, after.Hits)
	}
	// An untraced re-run still hits the cache and carries no trace.
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced run returned a trace")
	}
	if got := e.PlanCacheStats(); got.Hits != after.Hits+1 {
		t.Fatalf("untraced re-run missed the cache: hits %d -> %d", after.Hits, got.Hits)
	}
}

// resultText joins a one-column plan result into a single string.
func resultText(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0].String())
		b.WriteByte('\n')
	}
	return b.String()
}
