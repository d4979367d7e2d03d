package bench

import (
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/core/rewrite"
)

// TestStrategiesAnswerWithTheSameColumns: Row(MV) and Row(Col) are
// transparent rewrites, so every workload query answers with the same
// result columns and the same rows whether it runs on the base tables, is
// matched to a view (Manager.Query, which DB.QueryUsingViews calls) or runs
// as the c-table rewriter's SQL text. Rows compare as sets, float sums within
// a relative 1e-9 (a run folds as value*count).
func TestStrategiesAnswerWithTheSameColumns(t *testing.T) {
	h := harness(t)
	for _, q := range Queries() {
		spec := h.specs()[q]
		query, _ := spec.resolve(h, 0.1)
		row, err := h.Engine.Query(query)
		if err != nil {
			t.Fatalf("%s Row: %v", q, err)
		}
		mv, used, err := h.Views.Query(query)
		if err != nil || !used {
			t.Fatalf("%s Row(MV): used %v, %v", q, used, err)
		}
		colSQL, err := rewrite.New(h.Designs[spec.design]).RewriteSQL(query)
		if err != nil {
			t.Fatalf("%s Row(Col): %v", q, err)
		}
		col, err := h.Engine.Query(colSQL)
		if err != nil {
			t.Fatalf("%s Row(Col): %v\nSQL: %s", q, err, colSQL)
		}
		if len(row.Rows) == 0 {
			t.Errorf("%s returned no rows", q)
		}
		for name, res := range map[string]struct {
			columns []string
			msg     string
		}{
			"Row(MV)":  {mv.Columns, sortedRowsApproxEqual(mv.Rows, row.Rows)},
			"Row(Col)": {col.Columns, sortedRowsApproxEqual(col.Rows, row.Rows)},
		} {
			if !slices.Equal(res.columns, row.Columns) {
				t.Errorf("%s %s columns %q, Row answers %q", q, name, res.columns, row.Columns)
			}
			if res.msg != "" {
				t.Errorf("%s %s rows differ from Row: %s", q, name, res.msg)
			}
		}
	}
}

// TestRangeCollapseOnlyOverRanges: the rewriter collapses D1's leading
// column to one MIN(f)..MAX(f+c-1) span only when every filter on it is a
// range. IN, <> and NOT BETWEEN keep runs that are not contiguous, so one
// span would count the runs between them; those rewrite to the band-join
// chain of Figure 4(a) and answer what the base tables answer.
func TestRangeCollapseOnlyOverRanges(t *testing.T) {
	h := harness(t)
	rw := rewrite.New(h.Designs["D1"])
	for _, c := range []struct {
		filter   string
		collapse bool
	}{
		{"l_shipdate IN (DATE '1994-01-03', DATE '1997-01-02')", false},
		{"l_shipdate <> DATE '1995-01-03'", false},
		{"l_shipdate NOT BETWEEN DATE '1993-01-01' AND DATE '1997-06-30'", false},
		{"l_shipdate > DATE '1995-01-03' AND l_shipdate IN (DATE '1996-02-01', DATE '1997-01-02')", false},
		{"l_shipdate > DATE '1995-01-03' AND l_shipdate <= DATE '1996-02-01'", true},
		{"l_shipdate BETWEEN DATE '1994-01-03' AND DATE '1994-03-02'", true},
	} {
		query := "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE " + c.filter + " GROUP BY l_suppkey"
		colSQL, err := rw.RewriteSQL(query)
		if err != nil {
			t.Fatalf("%s: %v", c.filter, err)
		}
		if got := strings.Contains(colSQL, "xmin"); got != c.collapse {
			t.Errorf("%s: range collapse %v, want %v\nSQL: %s", c.filter, got, c.collapse, colSQL)
		}
		want, err := h.Engine.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Engine.Query(colSQL)
		if err != nil {
			t.Fatalf("%s: %v\nSQL: %s", c.filter, err, colSQL)
		}
		if len(want.Rows) == 0 {
			t.Errorf("%s: the base tables answer no rows", c.filter)
		}
		if msg := sortedRowsApproxEqual(got.Rows, want.Rows); msg != "" {
			t.Errorf("%s: the rewriting answers otherwise than the base tables: %s\nSQL: %s", c.filter, msg, colSQL)
		}
	}
}

// TestViewMatchingFallsBackOnColumnOperands: a filter that compares a view
// group column with other columns is no column predicate, so no view
// matches the query, and it runs on the base tables.
func TestViewMatchingFallsBackOnColumnOperands(t *testing.T) {
	h := harness(t)
	for _, filter := range []string{
		"l_shipdate BETWEEN l_commitdate AND l_receiptdate",
		"l_shipdate IN (l_commitdate)",
		"l_shipdate > l_commitdate + 1",
	} {
		query := "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE " + filter + " GROUP BY l_suppkey"
		got, used, err := h.Views.Query(query)
		if err != nil || used {
			t.Fatalf("%s: used a view %v, %v", filter, used, err)
		}
		want, err := h.Engine.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Errorf("%s: the base tables answer no rows", filter)
		}
		if msg := sortedRowsApproxEqual(got.Rows, want.Rows); msg != "" {
			t.Errorf("%s: %s", filter, msg)
		}
	}
}

// TestDesignsDeclineQueriesOverAnotherSource: a view or a c-table design
// answers only a query over the same tables under the same joins as its
// source. A query that compares two columns of one table, adds a table,
// reads another table, or leaves out a join reads rows no design holds, so
// view matching falls back to the base tables and the rewriter refuses with
// the source mismatch. (TestStrategiesAnswerWithTheSameColumns holds Q1–Q7
// to every design that does cover them.)
func TestDesignsDeclineQueriesOverAnotherSource(t *testing.T) {
	h := harness(t)
	for _, query := range []string{
		"SELECT COUNT(*) FROM lineitem WHERE l_suppkey = l_orderkey AND l_shipdate > DATE '1990-01-01'",
		"SELECT COUNT(*) FROM lineitem, customer WHERE l_shipdate > DATE '1990-01-01'",
		"SELECT COUNT(*) FROM orders WHERE l_shipdate > DATE '1990-01-01'",
		"SELECT COUNT(*) FROM lineitem, orders WHERE o_orderdate > DATE '1998-01-01'",
	} {
		got, used, err := h.Views.Query(query)
		if used {
			t.Errorf("%s: answered from a view", query)
		}
		want, wantErr := h.Engine.Query(query)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Errorf("%s: view matching answers error %v, the base tables %v", query, err, wantErr)
		case err == nil:
			if msg := sortedRowsApproxEqual(got.Rows, want.Rows); msg != "" {
				t.Errorf("%s: %s", query, msg)
			}
		}
		for _, name := range []string{"D1", "D2", "D4"} {
			colSQL, err := rewrite.New(h.Designs[name]).RewriteSQL(query)
			if err == nil || !strings.Contains(err.Error(), "source mismatch") {
				t.Errorf("%s on %s: rewrote to %q, error %v; want a source mismatch", query, name, colSQL, err)
			}
		}
	}
}
