package bench

import (
	"strings"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/trace"
)

// bandJoinSpans lists the IndexNestedLoopJoin spans of a trace, outermost
// first.
func bandJoinSpans(sp *trace.Span) []*trace.Span {
	var out []*trace.Span
	if sp.Name == "IndexNestedLoopJoin" {
		out = append(out, sp)
	}
	for _, c := range sp.Children {
		out = append(out, bandJoinSpans(c)...)
	}
	return out
}

// TestExplainBandJoinSeeks pins what EXPLAIN ANALYZE reports for the band
// joins of Q6's c-table rewrite at selectivity 1.0. Every join reports the
// outer rows it joined, the inner range seeks it made and the inner rows it
// read. The row reference seeks once per outer row with non-NULL bounds; the
// batch join coalesces chained ranges, so the second join — an equality
// between two dense c-tables, one outer row per line item (60,119 at SF 0.01)
// — needs about one seek per outer batch.
func TestExplainBandJoinSeeks(t *testing.T) {
	for _, mode := range []string{"row", "compressed-vector"} {
		h := executorModes(t)[mode]
		spec := h.specs()["Q6"]
		query, _, _ := spec.resolve(h, 1)
		sqlText, err := h.strategySQL("Q6", spec, StrategyRowCol, query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Engine.QueryWith(engine.QueryOptions{Trace: true}, sqlText)
		if err != nil {
			t.Fatal(err)
		}
		joins := bandJoinSpans(res.Trace)
		if len(joins) < 2 {
			t.Fatalf("%s: Q6's rewrite planned %d band joins, want a chain of two or more:\n%s", mode, len(joins), res.Trace.Format())
		}
		second := joins[len(joins)-2]
		attr := func(k string) int64 {
			v, ok := second.Attr(k)
			if !ok {
				t.Fatalf("%s: band join span lacks %q:\n%s", mode, k, res.Trace.Format())
			}
			return v
		}
		outer, seeks, inner := attr("outer_rows"), attr("seeks"), attr("inner_rows")
		if outer < 50_000 || inner < outer {
			t.Fatalf("%s: second band join joined %d outer rows to %d inner rows, want every line item", mode, outer, inner)
		}
		switch mode {
		case "row":
			if seeks != outer {
				t.Errorf("row reference: %d seeks for %d outer rows, want one each", seeks, outer)
			}
		default:
			if seeks > 120 {
				t.Errorf("batch join: %d seeks for %d outer rows, want at most 120", seeks, outer)
			}
		}
		if text := strings.Join(res.Trace.Lines(), "\n"); !strings.Contains(text, "seeks=") {
			t.Errorf("%s: EXPLAIN ANALYZE text does not show the seeks:\n%s", mode, text)
		}
		t.Logf("%s: outer_rows=%d seeks=%d inner_rows=%d", mode, outer, seeks, inner)
	}
}

// TestExplainBandJoinDescents pins the descents EXPLAIN ANALYZE reports for
// the two band joins of Q6's c-table rewrite: the seeks positioned by a
// descent from the inner tree's root. Each join probes its c-table in f
// order, so a probe forward of the last begins in the leaf where the last
// stopped; at selectivity 1 the first probe starts at the smallest f, at or
// below the leftmost leaf's fence, and no probe descends, and at 0.5 only the
// first does. Both protocols position alike.
func TestExplainBandJoinDescents(t *testing.T) {
	for _, mode := range []string{"row", "compressed-vector"} {
		h := executorModes(t)[mode]
		spec := h.specs()["Q6"]
		for _, c := range []struct {
			sel      float64
			descents int64
		}{{1, 0}, {0.5, 1}} {
			query, _, _ := spec.resolve(h, c.sel)
			sqlText, err := h.strategySQL("Q6", spec, StrategyRowCol, query)
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Engine.QueryWith(engine.QueryOptions{Trace: true}, sqlText)
			if err != nil {
				t.Fatal(err)
			}
			joins := bandJoinSpans(res.Trace)
			if len(joins) != 2 {
				t.Fatalf("%s sel=%v: Q6's rewrite planned %d band joins, want 2:\n%s", mode, c.sel, len(joins), res.Trace.Format())
			}
			for i, j := range joins {
				seeks, _ := j.Attr("seeks")
				descents, ok := j.Attr("descents")
				if !ok || descents != c.descents {
					t.Errorf("%s sel=%v: band join %d made %d seeks, %d of them descents (reported %v), want %d descents:\n%s",
						mode, c.sel, i, seeks, descents, ok, c.descents, res.Trace.Format())
				}
			}
			if text := strings.Join(res.Trace.Lines(), "\n"); !strings.Contains(text, "descents=") {
				t.Errorf("%s: EXPLAIN ANALYZE text does not show the descents:\n%s", mode, text)
			}
		}
	}
}
