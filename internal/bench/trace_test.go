package bench

import (
	"strings"
	"testing"

	"oldelephant/internal/engine"
)

// TestTraceExplainAnalyzeDifferential is the cardinality-honesty proof for
// EXPLAIN ANALYZE: across the full workload (Q1-Q7), serially and
// morsel-parallel, a traced execution must (a) return exactly the rows the
// untraced engine returns and (b) report a root-span row count equal to the
// actual result cardinality. If an instrumented wrapper dropped, duplicated
// or double-counted rows anywhere in the tree, one of the two comparisons
// breaks.
func TestTraceExplainAnalyzeDifferential(t *testing.T) {
	modes := map[string]*Harness{
		"serial":   cachedHarness(t, func(c *Config) {}),
		"parallel": cachedHarness(t, func(c *Config) { c.Parallelism = 2 }),
	}
	compared := 0
	for name, h := range modes {
		parallel := name == "parallel"
		for _, q := range Queries() {
			spec := h.specs()[q]
			sels := h.Config.Selectivities
			if !spec.swept {
				sels = []float64{0}
			}
			for _, sel := range sels {
				sqlText, _, _ := spec.resolve(h, sel)
				plain, err := h.Engine.Query(sqlText)
				if err != nil {
					t.Fatalf("%s %s: %v\nSQL: %s", name, q, err, sqlText)
				}
				traced, err := h.Engine.QueryWith(engine.QueryOptions{Trace: true}, sqlText)
				if err != nil {
					t.Fatalf("%s %s traced: %v\nSQL: %s", name, q, err, sqlText)
				}
				if traced.Trace == nil {
					t.Fatalf("%s %s: traced run returned no span tree", name, q)
				}
				// (a) result identity: traced == untraced. Parallel runs fold
				// float partial aggregates in morsel order, so they compare
				// as sorted sets with the differential float tolerance.
				if parallel {
					if msg := sortedRowsApproxEqual(traced.Rows, plain.Rows); msg != "" {
						t.Errorf("%s %s sel=%v: traced results differ: %s", name, q, sel, msg)
					}
				} else if got, want := formatRows(traced.Rows), formatRows(plain.Rows); got != want {
					t.Errorf("%s %s sel=%v: traced results differ\ntraced:\n%s\nuntraced:\n%s",
						name, q, sel, clip(got), clip(want))
				}
				// (b) the root span's reported cardinality is the actual one.
				if got, want := traced.Trace.Rows, int64(len(plain.Rows)); got != want {
					t.Errorf("%s %s sel=%v: root span rows=%d, actual result has %d\ntrace:\n%s",
						name, q, sel, got, want, traced.Trace.Format())
				}
				// Leaves must have seen at least as many rows as survived to
				// the root (plans only filter or aggregate rows away).
				if traced.Trace.LeafRows() < int64(len(plain.Rows)) && !strings.Contains(traced.Trace.Name, "Join") {
					t.Errorf("%s %s sel=%v: leaf rows %d < result rows %d",
						name, q, sel, traced.Trace.LeafRows(), len(plain.Rows))
				}
				compared++
			}
		}
	}
	// Floor: 7 queries × 2 modes, swept queries multiply further.
	if compared < 14 {
		t.Fatalf("only %d (query, mode, selectivity) points compared", compared)
	}
	t.Logf("compared %d (query, mode, selectivity) points", compared)
}

// BenchmarkTraceOverheadUntraced and ...Traced are the tracing A/B pair: the
// same scan-filter-aggregate query on the same engine, with and without a
// trace requested. The untraced side is the number that must not regress
// against a build without this PR (tracing off must cost nothing); the gap
// between the two is the opt-in price of EXPLAIN ANALYZE.
//
//	go test ./internal/bench -run XXX -bench 'TraceOverhead' -benchtime 200x -count 3
func BenchmarkTraceOverheadUntraced(b *testing.B) {
	vec, _ := benchEngines(b)
	runQueryBench(b, vec, scanFilterAggSQL)
}

func BenchmarkTraceOverheadTraced(b *testing.B) {
	vec, _ := benchEngines(b)
	rowsOut := 0
	spans := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := vec.QueryWith(engine.QueryOptions{Trace: true}, scanFilterAggSQL)
		if err != nil {
			b.Fatal(err)
		}
		rowsOut = len(res.Rows)
		spans = res.Trace.NumSpans()
	}
	b.StopTimer()
	if rowsOut == 0 || spans == 0 {
		b.Fatalf("traced benchmark degenerate: rows=%d spans=%d", rowsOut, spans)
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
