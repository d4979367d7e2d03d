package matview

import (
	"sort"
	"strings"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

// testDB builds a small lineitem/orders/customer database and the paper's
// generalized materialized views MV2,3 (also covering Q1) and MV7.
func testDB(t *testing.T) (*engine.Engine, *Manager) {
	t.Helper()
	e := engine.Default()
	ddl := []string{
		`CREATE TABLE lineitem (l_orderkey BIGINT, l_suppkey INT, l_shipdate DATE,
			l_extendedprice DOUBLE, l_returnflag VARCHAR(1), PRIMARY KEY (l_orderkey))`,
		`CREATE TABLE orders (o_orderkey BIGINT, o_custkey INT, o_orderdate DATE, PRIMARY KEY (o_orderkey))`,
		`CREATE TABLE customer (c_custkey INT, c_nationkey INT, PRIMARY KEY (c_custkey))`,
	}
	for _, q := range ddl {
		if _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	base := value.MustParseDate("1995-01-01").Int()
	var cust, ord, li [][]value.Value
	for c := 0; c < 20; c++ {
		cust = append(cust, []value.Value{value.NewInt(int64(c)), value.NewInt(int64(c % 4))})
	}
	for o := 0; o < 150; o++ {
		ord = append(ord, []value.Value{
			value.NewInt(int64(o)), value.NewInt(int64(o % 20)), value.NewDate(base + int64(o%30)),
		})
	}
	for i := 0; i < 1500; i++ {
		flag := "N"
		if i%4 == 0 {
			flag = "R"
		} else if i%4 == 1 {
			flag = "A"
		}
		li = append(li, []value.Value{
			value.NewInt(int64(i % 150)),
			value.NewInt(int64(i % 12)),
			value.NewDate(base + int64(i%45)),
			value.NewFloat(float64(50 + i%200)),
			value.NewString(flag),
		})
	}
	for table, rows := range map[string][][]value.Value{"customer": cust, "orders": ord, "lineitem": li} {
		if err := e.BulkLoad(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(e)
	// MV2,3 from the paper (also answers Q1).
	if err := m.Create("mv23", `SELECT l_shipdate, l_suppkey, COUNT(*) AS cnt
		FROM lineitem GROUP BY l_shipdate, l_suppkey`); err != nil {
		t.Fatal(err)
	}
	// MV7 from the paper.
	if err := m.Create("mv7", `SELECT c_nationkey, l_returnflag, SUM(l_extendedprice) AS revenue
		FROM lineitem, orders, customer
		WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
		GROUP BY l_returnflag, c_nationkey`); err != nil {
		t.Fatal(err)
	}
	// A view with MAX for the Q4/Q5/Q6 family.
	if err := m.Create("mv456", `SELECT o_orderdate, l_suppkey, MAX(l_shipdate) AS maxship, COUNT(*) AS cnt
		FROM lineitem, orders WHERE l_orderkey = o_orderkey
		GROUP BY o_orderdate, l_suppkey`); err != nil {
		t.Fatal(err)
	}
	return e, m
}

// compare runs the query directly and through the manager and compares results.
func compare(t *testing.T, e *engine.Engine, m *Manager, query string, wantMatch bool) {
	t.Helper()
	direct, err := e.Query(query)
	if err != nil {
		t.Fatalf("direct query failed: %v", err)
	}
	viaView, matched, err := m.Query(query)
	if err != nil {
		t.Fatalf("view query failed: %v", err)
	}
	if matched != wantMatch {
		rew, _, _ := m.RewriteSQL(query)
		t.Fatalf("matched = %v, want %v (rewritten: %s)", matched, wantMatch, rew)
	}
	a, b := normalize(direct.Rows), normalize(viaView.Rows)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs:\n  direct: %s\n  view:   %s", i, a[i], b[i])
		}
	}
}

func normalize(rows [][]value.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var parts []string
		for _, v := range r {
			if v.Kind == value.KindFloat {
				parts = append(parts, value.NewFloat(float64(int64(v.F*100+0.5))/100).String())
			} else {
				parts = append(parts, v.String())
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func TestQ1AnsweredFromMV23(t *testing.T) {
	e, m := testDB(t)
	q := "SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-01-20' GROUP BY l_shipdate"
	compare(t, e, m, q, true)
	rew, ok, err := m.RewriteSQL(q)
	if err != nil || !ok {
		t.Fatalf("rewrite failed: %v %v", ok, err)
	}
	if !strings.Contains(strings.ToLower(rew), "mv23") || !strings.Contains(strings.ToUpper(rew), "SUM") {
		t.Errorf("unexpected rewriting: %s", rew)
	}
}

func TestQ2Q3AnsweredFromMV23WithDifferentConstants(t *testing.T) {
	e, m := testDB(t)
	// The whole point of the generalization: arbitrary constants still match.
	for _, d := range []string{"1995-01-05", "1995-01-15", "1995-02-01"} {
		compare(t, e, m, "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = DATE '"+d+"' GROUP BY l_suppkey", true)
		compare(t, e, m, "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '"+d+"' GROUP BY l_suppkey", true)
	}
}

func TestQ7AnsweredFromMV7(t *testing.T) {
	e, m := testDB(t)
	for _, flag := range []string{"R", "A", "N"} {
		q := `SELECT c_nationkey, SUM(l_extendedprice) FROM lineitem, orders, customer
		      WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND l_returnflag = '` + flag + `'
		      GROUP BY c_nationkey`
		compare(t, e, m, q, true)
	}
}

func TestQ4Q5Q6AnsweredFromMV456(t *testing.T) {
	e, m := testDB(t)
	queries := []string{
		"SELECT o_orderdate, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1995-01-10' GROUP BY o_orderdate",
		"SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate = DATE '1995-01-07' GROUP BY l_suppkey",
		"SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1995-01-18' GROUP BY l_suppkey",
	}
	for _, q := range queries {
		compare(t, e, m, q, true)
	}
}

func TestNonMatchingQueriesFallBack(t *testing.T) {
	e, m := testDB(t)
	cases := []string{
		// Filter on a column that is not a view group-by column.
		"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_extendedprice > 100 GROUP BY l_suppkey",
		// Aggregate not stored in any matching view.
		"SELECT l_shipdate, MIN(l_suppkey) FROM lineitem GROUP BY l_shipdate",
		// Different table set.
		"SELECT o_orderdate, COUNT(*) FROM orders GROUP BY o_orderdate",
		// Grouping on a non-view column.
		"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag",
	}
	for _, q := range cases {
		compare(t, e, m, q, false)
	}
}

func TestAvgDerivation(t *testing.T) {
	e, m := testDB(t)
	// AVG over a view with SUM and COUNT(*): derivable.
	if err := m.Create("mv_avg", `SELECT l_suppkey, SUM(l_extendedprice) AS s, COUNT(*) AS c
		FROM lineitem GROUP BY l_suppkey`); err != nil {
		t.Fatal(err)
	}
	compare(t, e, m, "SELECT l_suppkey, AVG(l_extendedprice) FROM lineitem GROUP BY l_suppkey", true)
	compare(t, e, m, "SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem GROUP BY l_suppkey", true)
}

func TestRefresh(t *testing.T) {
	e, m := testDB(t)
	// New rows are not visible until the view is refreshed.
	if _, err := e.Execute("INSERT INTO lineitem VALUES (1, 3, DATE '1997-12-31', 10.0, 'R')"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1997-01-01' GROUP BY l_shipdate"
	stale, matched, err := m.Query(q)
	if err != nil || !matched {
		t.Fatalf("query failed: %v %v", matched, err)
	}
	if len(stale.Rows) != 0 {
		t.Fatalf("view should be stale, got %v", stale.Rows)
	}
	if err := m.Refresh("mv23"); err != nil {
		t.Fatal(err)
	}
	fresh, matched, err := m.Query(q)
	if err != nil || !matched {
		t.Fatalf("query after refresh failed: %v %v", matched, err)
	}
	if len(fresh.Rows) != 1 || fresh.Rows[0][1].Int() != 1 {
		t.Errorf("refreshed view rows = %v", fresh.Rows)
	}
	if err := m.Refresh("nope"); err == nil {
		t.Error("refresh of missing view should fail")
	}
}

func TestManagerErrors(t *testing.T) {
	_, m := testDB(t)
	if err := m.Create("bad", "not a query"); err == nil {
		t.Error("bad SQL should fail")
	}
	if err := m.Create("mv23", "SELECT l_suppkey, COUNT(*) FROM lineitem GROUP BY l_suppkey"); err == nil {
		t.Error("duplicate view should fail")
	}
	if _, _, err := m.Query("also not a query"); err == nil {
		t.Error("bad query should fail")
	}
	if _, _, err := m.RewriteSQL("still not a query"); err == nil {
		t.Error("bad rewrite input should fail")
	}
	// ORDER BY on a group column is preserved through the view rewriting.
	rew, ok, err := m.RewriteSQL("SELECT l_shipdate, COUNT(*) FROM lineitem GROUP BY l_shipdate ORDER BY l_shipdate DESC")
	if err != nil || !ok {
		t.Fatalf("rewrite failed: %v %v", ok, err)
	}
	if !strings.Contains(strings.ToUpper(rew), "ORDER BY") {
		t.Errorf("ORDER BY lost: %s", rew)
	}
}

func TestViewIOBenefit(t *testing.T) {
	e, m := testDB(t)
	q := "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1995-01-15' GROUP BY l_suppkey"
	e.ResetBufferPool()
	direct, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetBufferPool()
	viaView, matched, err := m.Query(q)
	if err != nil || !matched {
		t.Fatal(err)
	}
	if viaView.Stats.IO.PageReads > direct.Stats.IO.PageReads {
		t.Errorf("view should not read more pages than the base query: %d vs %d",
			viaView.Stats.IO.PageReads, direct.Stats.IO.PageReads)
	}
}

// TestColumnOperandsFallBack: a filter on a view group column whose other
// operands are columns is no column predicate, so it matches no view and the
// query runs on the base tables instead of failing on a column the view
// does not hold.
func TestColumnOperandsFallBack(t *testing.T) {
	e, m := testDB(t)
	for _, filter := range []string{
		"l_suppkey BETWEEN l_orderkey AND 20",
		"l_suppkey IN (l_orderkey)",
		"l_suppkey < l_orderkey + 1",
	} {
		compare(t, e, m, "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE "+filter+" GROUP BY l_suppkey", false)
	}
	// Constants of any form still match: reversed, arithmetic, negated.
	for _, filter := range []string{
		"DATE '1995-01-20' <= l_shipdate",
		"l_shipdate < DATE '1995-01-01' + 10",
		"l_shipdate NOT BETWEEN DATE '1995-01-05' AND DATE '1995-02-01'",
		"l_shipdate NOT IN (DATE '1995-01-05')",
	} {
		compare(t, e, m, "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE "+filter+" GROUP BY l_suppkey", true)
	}
}

// TestFilteredViewsMatchNothing: a view that keeps only some of its groups
// (HAVING) or rows (LIMIT) does not hold every group a query asks for, so
// no query matches it, even where it is the smallest view with the columns.
func TestFilteredViewsMatchNothing(t *testing.T) {
	e, m := testDB(t)
	for name, def := range map[string]string{
		"busy": "SELECT l_suppkey, COUNT(*) AS cnt FROM lineitem GROUP BY l_suppkey HAVING COUNT(*) > 1000",
		"top3": "SELECT l_suppkey, COUNT(*) AS cnt FROM lineitem GROUP BY l_suppkey LIMIT 3",
	} {
		if err := m.Create(name, def); err != nil {
			t.Fatal(err)
		}
	}
	compare(t, e, m, "SELECT l_suppkey, COUNT(*) FROM lineitem GROUP BY l_suppkey", true)
	if rew, _, _ := m.RewriteSQL("SELECT l_suppkey, COUNT(*) FROM lineitem GROUP BY l_suppkey"); !strings.Contains(rew, "mv23") {
		t.Errorf("rewritten onto %s, want mv23", rew)
	}
}

// TestScalarCountOverNoRowsIsZero: a scalar COUNT(*) answered from a view sums
// the view's stored counts, which over no group is NULL; like the base tables
// it must answer 0. The mv4-shaped probe joins lineitem and orders past the
// last order date; a grouped count over no rows still answers no group.
func TestScalarCountOverNoRowsIsZero(t *testing.T) {
	e, m := testDB(t)
	for _, q := range []string{
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '2100-01-01'",
		"SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '2100-07-01'",
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-02-01'",
		"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '2100-01-01' GROUP BY l_suppkey",
	} {
		compare(t, e, m, q, true)
	}
	res, matched, err := m.Query("SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '2100-01-01'")
	if err != nil || !matched {
		t.Fatalf("matched %v, error %v", matched, err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].IsNull() || res.Rows[0][0].Int() != 0 {
		t.Fatalf("scalar count over no rows answered %v from a view, want 0", res.Rows)
	}
}
