package rewrite

import (
	"sort"
	"strings"
	"testing"

	"oldelephant/internal/core/ctable"
	"oldelephant/internal/engine"
	"oldelephant/internal/sql"
	"oldelephant/internal/value"
)

// testDB builds a small lineitem/orders/customer database plus the paper's
// D1, D2 and D4 c-table designs.
func testDB(t *testing.T) (*engine.Engine, map[string]*ctable.Design) {
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
	for c := 0; c < 25; c++ {
		cust = append(cust, []value.Value{value.NewInt(int64(c)), value.NewInt(int64(c % 5))})
	}
	for o := 0; o < 200; o++ {
		ord = append(ord, []value.Value{
			value.NewInt(int64(o)), value.NewInt(int64(o % 25)), value.NewDate(base + int64(o%40)),
		})
	}
	for i := 0; i < 2000; i++ {
		flag := "N"
		if i%5 == 0 {
			flag = "R"
		} else if i%5 == 1 {
			flag = "A"
		}
		li = append(li, []value.Value{
			value.NewInt(int64(i % 200)),
			value.NewInt(int64(i % 15)),
			value.NewDate(base + int64(i%60)),
			value.NewFloat(float64(100 + i%300)),
			value.NewString(flag),
		})
	}
	for table, rows := range map[string][][]value.Value{"customer": cust, "orders": ord, "lineitem": li} {
		if err := e.BulkLoad(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	b := ctable.NewBuilder(e)
	designs := make(map[string]*ctable.Design)
	d1, err := b.Build("d1", "SELECT l_shipdate, l_suppkey FROM lineitem",
		[]string{"l_shipdate", "l_suppkey"}, []string{"l_shipdate", "l_suppkey"})
	if err != nil {
		t.Fatal(err)
	}
	designs["D1"] = d1
	d2, err := b.Build("d2",
		"SELECT o_orderdate, l_suppkey, l_shipdate FROM lineitem, orders WHERE l_orderkey = o_orderkey",
		[]string{"o_orderdate", "l_suppkey", "l_shipdate"}, []string{"o_orderdate", "l_suppkey"})
	if err != nil {
		t.Fatal(err)
	}
	designs["D2"] = d2
	d4, err := b.Build("d4",
		"SELECT l_returnflag, c_nationkey, l_extendedprice FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey",
		[]string{"l_returnflag", "c_nationkey", "l_extendedprice"}, []string{"l_returnflag"})
	if err != nil {
		t.Fatal(err)
	}
	designs["D4"] = d4
	return e, designs
}

// runBoth executes the original query and its rewriting and compares results
// as multisets of stringified rows.
func runBoth(t *testing.T, e *engine.Engine, r *Rewriter, query string) (origPlan, rewPlan string) {
	t.Helper()
	orig, err := e.Query(query)
	if err != nil {
		t.Fatalf("original query failed: %v\n%s", err, query)
	}
	rewritten, err := r.RewriteSQL(query)
	if err != nil {
		t.Fatalf("rewrite failed: %v\n%s", err, query)
	}
	rew, err := e.Query(rewritten)
	if err != nil {
		t.Fatalf("rewritten query failed: %v\n%s", err, rewritten)
	}
	a := rowsToStrings(orig.Rows)
	b := rowsToStrings(rew.Rows)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: original %d, rewritten %d\nrewritten SQL: %s", len(a), len(b), rewritten)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs:\n  original:  %s\n  rewritten: %s\nrewritten SQL: %s", i, a[i], b[i], rewritten)
		}
	}
	return orig.Plan, rew.Plan
}

func rowsToStrings(rows [][]value.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var parts []string
		for _, v := range r {
			if v.Kind == value.KindFloat {
				// Tolerate float formatting differences by rounding.
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

func TestQ1Rewrite(t *testing.T) {
	e, designs := testDB(t)
	r := New(designs["D1"])
	q := "SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-02-10' GROUP BY l_shipdate"
	runBoth(t, e, r, q)
	// The rewriting touches a single c-table and aggregates run lengths.
	rewritten, err := r.RewriteSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rewritten, "d1_l_shipdate") || !strings.Contains(strings.ToUpper(rewritten), "SUM") {
		t.Errorf("unexpected rewriting: %s", rewritten)
	}
	if strings.Contains(rewritten, "d1_l_suppkey") {
		t.Errorf("Q1 should not touch the suppkey c-table: %s", rewritten)
	}
}

func TestQ2Q3Rewrites(t *testing.T) {
	e, designs := testDB(t)
	r := New(designs["D1"])
	// Q2: equality on shipdate, group by suppkey.
	runBoth(t, e, r, "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1995-01-15' GROUP BY l_suppkey")
	// Q3: range on shipdate, group by suppkey; this is the paper's running example.
	q3 := "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-02-01' GROUP BY l_suppkey"
	runBoth(t, e, r, q3)
	// With range collapse (the default) the rewriting contains a derived
	// table computing MIN(f)/MAX(f+c-1), as in Figure 4(b).
	rewritten, _ := r.RewriteSQL(q3)
	if !strings.Contains(strings.ToLower(rewritten), "xmin") || !strings.Contains(strings.ToLower(rewritten), "xmax") {
		t.Errorf("expected range-collapse rewriting, got: %s", rewritten)
	}
	// Grouping by the range-filtered leading column needs its values, so the
	// band join of Figure 4(a) appears instead, with the filter on T0.v.
	byDay := "SELECT l_shipdate, l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-02-01' GROUP BY l_shipdate, l_suppkey"
	plain, err := r.RewriteSQL(byDay)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain, "(T1.f BETWEEN T0.f AND") || !strings.Contains(plain, "(T0.v > DATE '1995-02-01')") ||
		strings.Contains(plain, "xmin") {
		t.Errorf("expected plain band-join rewriting, got: %s", plain)
	}
	runBoth(t, e, r, byDay)
	// Selectivity sweep: both rewritings agree with the original at every point.
	for _, d := range []string{"1995-01-01", "1995-01-20", "1995-02-20", "1995-03-01", "1999-01-01"} {
		runBoth(t, e, r, "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '"+d+"' GROUP BY l_suppkey")
	}
}

func TestQ4Q5Q6RewritesOverJoinDesign(t *testing.T) {
	e, designs := testDB(t)
	r := New(designs["D2"])
	queries := []string{
		// Q4: group by orderdate, MAX(shipdate), range on orderdate.
		"SELECT o_orderdate, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1995-01-20' GROUP BY o_orderdate",
		// Q5: equality on orderdate, group by suppkey.
		"SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate = DATE '1995-01-10' GROUP BY l_suppkey",
		// Q6: range on orderdate, group by suppkey.
		"SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1995-01-25' GROUP BY l_suppkey",
	}
	for _, q := range queries {
		runBoth(t, e, r, q)
	}
	// The join predicate l_orderkey = o_orderkey is absorbed by the design.
	rewritten, _ := r.RewriteSQL(queries[0])
	if strings.Contains(strings.ToLower(rewritten), "orderkey") {
		t.Errorf("join key should not appear in the rewriting: %s", rewritten)
	}
}

func TestQ7RewriteOverD4(t *testing.T) {
	e, designs := testDB(t)
	r := New(designs["D4"])
	q7 := `SELECT c_nationkey, SUM(l_extendedprice)
	       FROM lineitem, orders, customer
	       WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND l_returnflag = 'R'
	       GROUP BY c_nationkey`
	runBoth(t, e, r, q7)
	rewritten, _ := r.RewriteSQL(q7)
	// SUM is over v weighted by the deepest run length (or plain v when the
	// deepest table is dense), and three c-tables are chained.
	up := strings.ToUpper(rewritten)
	if !strings.Contains(up, "SUM") {
		t.Errorf("Q7 rewriting missing SUM: %s", rewritten)
	}
	for _, tbl := range []string{"d4_l_returnflag", "d4_c_nationkey", "d4_l_extendedprice"} {
		if !strings.Contains(rewritten, tbl) {
			t.Errorf("Q7 rewriting missing %s: %s", tbl, rewritten)
		}
	}
}

func TestAggregateForms(t *testing.T) {
	e, designs := testDB(t)
	r := New(designs["D1"])
	// MIN, AVG, COUNT(col) and SUM over the group-by column itself.
	queries := []string{
		"SELECT l_suppkey, MIN(l_shipdate) FROM lineitem WHERE l_shipdate > DATE '1995-01-10' GROUP BY l_suppkey",
		"SELECT l_shipdate, SUM(l_suppkey) FROM lineitem WHERE l_shipdate > DATE '1995-02-20' GROUP BY l_shipdate",
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-02-01'",
		"SELECT l_shipdate, AVG(l_suppkey) FROM lineitem WHERE l_shipdate > DATE '1995-02-25' GROUP BY l_shipdate",
	}
	for _, q := range queries {
		runBoth(t, e, r, q)
	}
}

func TestOrderByAndLimitSurvive(t *testing.T) {
	e, designs := testDB(t)
	r := New(designs["D1"])
	q := "SELECT l_suppkey, COUNT(*) AS cnt FROM lineitem WHERE l_shipdate > DATE '1995-01-20' GROUP BY l_suppkey ORDER BY l_suppkey DESC LIMIT 5"
	rewritten, err := r.RewriteSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rew, err := e.Query(rewritten)
	if err != nil {
		t.Fatalf("%v\n%s", err, rewritten)
	}
	if len(orig.Rows) != 5 || len(rew.Rows) != 5 {
		t.Fatalf("LIMIT not preserved: %d vs %d", len(orig.Rows), len(rew.Rows))
	}
	for i := range orig.Rows {
		if value.Compare(orig.Rows[i][0], rew.Rows[i][0]) != 0 || value.Compare(orig.Rows[i][1], rew.Rows[i][1]) != 0 {
			t.Fatalf("ordered row %d differs: %v vs %v", i, orig.Rows[i], rew.Rows[i])
		}
	}
}

func TestRewriteErrors(t *testing.T) {
	_, designs := testDB(t)
	r := New(designs["D1"])
	bad := []string{
		"SELECT DISTINCT l_suppkey FROM lineitem",
		"SELECT l_partkey FROM lineitem GROUP BY l_partkey",                                        // column not in design
		"SELECT * FROM lineitem",                                                                   // star
		"SELECT l_suppkey FROM (SELECT l_suppkey FROM lineitem) d GROUP BY l_suppkey",              // derived table
		"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > l_suppkey GROUP BY l_suppkey", // non-equality join pred
		"SELECT l_suppkey + 1 FROM lineitem GROUP BY l_suppkey",                                    // expression select item
		"SELECT l_suppkey, COUNT(*) FROM lineitem GROUP BY l_suppkey HAVING COUNT(*) > 1",          // having
		"SELECT MAX(l_suppkey + 1) FROM lineitem",                                                  // non-column agg arg
		"SELECT 1",
	}
	for _, q := range bad {
		if _, err := r.RewriteSQL(q); err == nil {
			t.Errorf("expected rewrite error for %q", q)
		}
	}
	if _, err := r.RewriteSQL("not sql at all"); err == nil {
		t.Error("parse errors should propagate")
	}
}

func TestRewriteAST(t *testing.T) {
	_, designs := testDB(t)
	r := New(designs["D1"])
	stmt, err := sql.ParseSelect("SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-02-01' GROUP BY l_suppkey")
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Rewrite(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.From) != 2 {
		t.Errorf("rewritten FROM = %v", out.From)
	}
	if out.Limit != -1 {
		t.Errorf("rewritten limit = %d", out.Limit)
	}
}

// TestNonRangeFiltersKeepTheBandJoinChain: IN, <> and NOT BETWEEN on the
// leading column keep runs that are not contiguous, so the rewriting keeps
// the band-join chain of Figure 4(a) rather than collapsing the column to
// one span, and answers as the base tables do.
func TestNonRangeFiltersKeepTheBandJoinChain(t *testing.T) {
	e, designs := testDB(t)
	r := New(designs["D1"])
	for _, filter := range []string{
		"l_shipdate IN (DATE '1995-01-03', DATE '1995-02-20')",
		"l_shipdate <> DATE '1995-01-20'",
		"l_shipdate NOT BETWEEN DATE '1995-01-10' AND DATE '1995-02-20'",
		"DATE '1995-01-05' < l_shipdate AND l_shipdate NOT IN (DATE '1995-01-20')",
	} {
		q := "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE " + filter + " GROUP BY l_suppkey"
		runBoth(t, e, r, q)
		rewritten, err := r.RewriteSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(rewritten, "xmin") {
			t.Errorf("%s: collapsed to one span: %s", filter, rewritten)
		}
	}
}

// TestScalarCountOverNoRowsIsZero: a scalar COUNT(*) whose range holds no row
// answers 0 on the base tables. The rewriting sums the deepest c-table's run
// lengths, which over no runs is NULL, so it must answer 0 too — over the
// run-length D1 c-tables and over a range at either end of the data — and a
// grouped count over no rows still answers no group.
func TestScalarCountOverNoRowsIsZero(t *testing.T) {
	e, designs := testDB(t)
	r := New(designs["D1"])
	for _, q := range []string{
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '2100-01-01'",
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate < DATE '1900-01-01'",
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-02-01'",
		"SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '2100-01-01' GROUP BY l_shipdate",
	} {
		runBoth(t, e, r, q)
	}
	rewritten, err := r.RewriteSQL("SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '2100-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].IsNull() || res.Rows[0][0].Int() != 0 {
		t.Fatalf("rewritten scalar count over no rows answered %v, want 0\n%s", res.Rows, rewritten)
	}
}
