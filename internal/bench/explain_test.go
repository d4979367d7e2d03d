package bench

import (
	"strings"
	"testing"

	"oldelephant/internal/btree"
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
		query, _ := spec.resolve(h, 1)
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

// TestExplainBandJoinDescents pins how EXPLAIN ANALYZE reports the
// positioning of the two band joins of Q6's c-table rewrite: seeks by a
// descent from the inner tree's root (descents) and from the leaf the
// bulk-loaded c-table's leaf model predicts (predicted), with the leaves
// those walked past (hops). Each join probes its c-table in f order, so a
// probe forward of the last begins in the leaf where the last stopped; at
// selectivity 1 the first probe starts at the smallest f, at or below the
// leftmost leaf's fence, and no probe is positioned afresh, and at 0.5 only
// the first is, from the predicted leaf. No probe descends. Both protocols
// position alike.
func TestExplainBandJoinDescents(t *testing.T) {
	for _, mode := range []string{"row", "compressed-vector"} {
		h := executorModes(t)[mode]
		spec := h.specs()["Q6"]
		for _, c := range []struct {
			sel       float64
			predicted int64
		}{{1, 0}, {0.5, 1}} {
			query, _ := spec.resolve(h, c.sel)
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
				descents, okD := j.Attr("descents")
				predicted, okP := j.Attr("predicted")
				hops, okH := j.Attr("hops")
				if !okD || !okP || !okH || descents != 0 || predicted != c.predicted || hops > predicted*btree.MaxWindow {
					t.Errorf("%s sel=%v: band join %d made %d seeks, %d descents and %d predicted with %d hops (reported %v %v %v), want no descent and %d predicted:\n%s",
						mode, c.sel, i, seeks, descents, predicted, hops, okD, okP, okH, c.predicted, res.Trace.Format())
				}
			}
			text := strings.Join(res.Trace.Lines(), "\n")
			for _, attr := range []string{"descents=", "predicted=", "hops="} {
				if !strings.Contains(text, attr) {
					t.Errorf("%s: EXPLAIN ANALYZE text does not show %s:\n%s", mode, attr, text)
				}
			}
		}
	}
}
