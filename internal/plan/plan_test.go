package plan

import (
	"strings"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/exec"
	"oldelephant/internal/sql"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// newTestCatalog builds a small clustered table with a covering secondary
// index: 5,000 rows on about 17 data pages, few enough that a full scan is
// cheaper in the cold disk model than any seek that descends from the root,
// though not than one from the leaf a bulk-loaded tree's model predicts.
func newTestCatalog(t *testing.T) *catalog.Catalog {
	return newEventsCatalog(t, 5000)
}

// newSeekCatalog builds the same table with 60,000 rows (about 200 data
// pages), enough for selective seeks to cost less than a scan.
func newSeekCatalog(t *testing.T) *catalog.Catalog {
	return newEventsCatalog(t, 60000)
}

func newEventsCatalog(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	c := catalog.New(storage.NewPager(0))
	tbl, err := c.CreateTable("events", []catalog.Column{
		{Name: "day", Kind: value.KindDate},
		{Name: "user_id", Kind: value.KindInt},
		{Name: "kind", Kind: value.KindString},
		{Name: "amount", Kind: value.KindFloat},
	}, []string{"day", "user_id"})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]value.Value
	base := value.MustParseDate("2008-01-01").Int()
	for i := 0; i < n; i++ {
		kind := "view"
		if i%10 == 0 {
			kind = "click"
		}
		rows = append(rows, []value.Value{
			value.NewDate(base + int64(i%200)),
			value.NewInt(int64(i % 50)),
			value.NewString(kind),
			value.NewFloat(float64(i % 97)),
		})
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("ix_user", "events", []string{"user_id"}, []string{"amount"}, false); err != nil {
		t.Fatal(err)
	}
	return c
}

func planFor(t *testing.T, c *catalog.Catalog, query string) *Plan {
	t.Helper()
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(c).PlanSelect(stmt)
	if err != nil {
		t.Fatalf("planning %q: %v", query, err)
	}
	return p
}

func TestScopeResolution(t *testing.T) {
	sc := &scope{}
	sc.add("t", "a", value.KindInt)
	sc.add("u", "a", value.KindInt)
	sc.add("t", "b", value.KindString)
	if ord, err := sc.resolve(&sql.ColRef{Table: "u", Column: "A"}); err != nil || ord != 1 {
		t.Errorf("qualified resolve = %d, %v", ord, err)
	}
	if _, err := sc.resolve(&sql.ColRef{Column: "a"}); err == nil {
		t.Error("ambiguous unqualified reference should fail")
	}
	if ord, err := sc.resolve(&sql.ColRef{Column: "b"}); err != nil || ord != 2 {
		t.Errorf("unqualified resolve = %d, %v", ord, err)
	}
	if _, err := sc.resolve(&sql.ColRef{Column: "zz"}); err == nil {
		t.Error("unknown column should fail")
	}
	joined := sc.concat(&scope{cols: []scopeColumn{{Qualifier: "v", Name: "c"}}})
	if len(joined.cols) != 4 {
		t.Errorf("concat length = %d", len(joined.cols))
	}
}

func TestAccessPathSelection(t *testing.T) {
	c := newSeekCatalog(t)
	// Sargable predicate on the clustered leading column -> clustered seek.
	p := planFor(t, c, "SELECT day, user_id FROM events WHERE day = DATE '2008-03-01'")
	if !strings.Contains(p.Explain, "ClusteredSeek") {
		t.Errorf("expected clustered seek, got %s", p.Explain)
	}
	// Equality on the secondary index key, covered -> index seek.
	p = planFor(t, c, "SELECT user_id, amount FROM events WHERE user_id = 7")
	if !strings.Contains(p.Explain, "IndexSeek") {
		t.Errorf("expected covering index seek, got %s", p.Explain)
	}
	// No sargable predicate -> sequential scan.
	p = planFor(t, c, "SELECT COUNT(*) FROM events WHERE kind = 'click'")
	if !strings.Contains(p.Explain, "SeqScan") {
		t.Errorf("expected scan, got %s", p.Explain)
	}
	// Date coercion: string literal compared with a DATE column still seeks.
	p = planFor(t, c, "SELECT day FROM events WHERE day > '2008-06-01'")
	if !strings.Contains(p.Explain, "ClusteredSeek") {
		t.Errorf("expected clustered seek with coerced date, got %s", p.Explain)
	}
	// On the 17-page table the same selective predicates seek too: two
	// random reads down the tree would cost more than one random read and 16
	// sequential, but both bulk-loaded trees have a leaf model, which prices
	// a start at one random read and the leaves it walks.
	small := newTestCatalog(t)
	for _, q := range []struct{ sql, path string }{
		{"SELECT day, user_id FROM events WHERE day = DATE '2008-03-01'", "ClusteredSeek"},
		{"SELECT user_id, amount FROM events WHERE user_id = 7", "IndexSeek"},
	} {
		if p := planFor(t, small, q.sql); !strings.Contains(p.Explain, q.path) {
			t.Errorf("%s on the small table: expected %s, got %s", q.sql, q.path, p.Explain)
		}
	}
}

// TestAccessPathEstimates: a single-table plan carries the cold page reads
// its access path was priced at, in the pager's seq/rand classes, and the
// chosen path is the cheapest of them.
func TestAccessPathEstimates(t *testing.T) {
	c := newSeekCatalog(t)
	tbl, _ := c.Table("events")
	if tbl.Clustered.Tree().Model() == nil {
		t.Fatal("the bulk-loaded events tree has no leaf model")
	}
	rand, hops := tbl.Clustered.Tree().StartReads()
	pages := tbl.Stats.EstimatedDataPages()

	scan := planFor(t, c, "SELECT COUNT(*) FROM events WHERE kind = 'click'")
	if e := scan.EstPages; e == nil || e.Rand != 1 || e.Seq != pages-1 {
		t.Errorf("scan estimate = %+v, want 1 random read and %.1f sequential", e, pages-1)
	}
	seek := planFor(t, c, "SELECT day, user_id FROM events WHERE day = DATE '2008-03-01'")
	if e := seek.EstPages; e == nil || rand != 1 || e.Rand != 1 || e.Seq < hops || e.Cost() >= scan.EstPages.Cost() {
		t.Errorf("seek estimate = %+v, want 1 random read, at least the model's %.2f hops and a cost below the scan's %.1f",
			e, hops, scan.EstPages.Cost())
	}
	// An upper bound alone starts at the leftmost leaf: one random read.
	open := planFor(t, c, "SELECT day FROM events WHERE day < '2008-01-05'")
	if !strings.Contains(open.Explain, "ClusteredSeek") || open.EstPages.Rand != 1 {
		t.Errorf("open-start seek: %s, estimate %+v", open.Explain, open.EstPages)
	}
	// An uncovered seek pays a random read per fetched row.
	lookup := planFor(t, c, "SELECT user_id, kind FROM events WHERE user_id = 7")
	if !strings.Contains(lookup.Explain, "SeqScan") {
		t.Errorf("1,200 lookups should lose to the scan: %s", lookup.Explain)
	}
	// A join has no single access path to estimate.
	if j := planFor(t, c, "SELECT a.day FROM events a, events b WHERE a.day = b.day AND a.user_id = 1 AND b.user_id = 2"); j.EstPages != nil {
		t.Errorf("join plan carries an access-path estimate: %+v", j.EstPages)
	}
	// The estimate stays out of the plan text.
	if want := "Project(Filter(ClusteredSeek(events on day)))"; seek.Explain != want {
		t.Errorf("seek plan text = %s, want %s", seek.Explain, want)
	}
}

func TestPlansExecuteCorrectly(t *testing.T) {
	c := newTestCatalog(t)
	p := planFor(t, c, "SELECT user_id, COUNT(*), SUM(amount) FROM events WHERE day >= DATE '2008-01-01' GROUP BY user_id ORDER BY user_id LIMIT 10")
	rows, err := exec.Drain(nil, p.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	if p.Columns[0] != "user_id" {
		t.Errorf("columns = %v", p.Columns)
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) {
			t.Errorf("row %d user_id = %v", i, r[0])
		}
		if r[1].Int() != 100 {
			t.Errorf("group %d count = %v, want 100", i, r[1])
		}
	}
	// Aggregation over the clustered order uses a stream aggregate.
	p = planFor(t, c, "SELECT day, COUNT(*) FROM events GROUP BY day")
	if !strings.Contains(p.Explain, "StreamAggregate") {
		t.Errorf("expected stream aggregate, got %s", p.Explain)
	}
	// Grouping on a non-prefix column falls back to hashing.
	p = planFor(t, c, "SELECT kind, COUNT(*) FROM events GROUP BY kind")
	if !strings.Contains(p.Explain, "HashAggregate") {
		t.Errorf("expected hash aggregate, got %s", p.Explain)
	}
}

// findScanEncodeCols digs the access-path operator out of a plan (behind
// Project/Filter wrappers) and returns its EncodeCols marking.
func findScanEncodeCols(op exec.Operator) []int {
	for {
		switch t := op.(type) {
		case *exec.Project:
			op = t.Input
		case *exec.Filter:
			op = t.Input
		default:
			goto unwrapped
		}
	}
unwrapped:
	switch s := op.(type) {
	case *exec.TableScan:
		return s.EncodeCols
	case *exec.IndexSeek:
		return s.EncodeCols
	default:
		return nil
	}
}

// TestPlannerMarksCompressedScans: access paths with a sort prefix are marked
// for compressed vector emission.
func TestPlannerMarksCompressedScans(t *testing.T) {
	c := newSeekCatalog(t)
	stmt, err := sql.ParseSelect("SELECT day, user_id FROM events WHERE day = DATE '2008-03-01'")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(c).PlanSelect(stmt)
	if err != nil {
		t.Fatal(err)
	}
	marked := findScanEncodeCols(p.Root)
	if len(marked) == 0 {
		t.Fatalf("clustered seek not marked for compressed emission (plan %s)", p.Explain)
	}
	if marked[0] != 0 {
		t.Errorf("leading marked position = %d, want 0 (day is the first produced column)", marked[0])
	}
}

func TestPlannerErrors(t *testing.T) {
	c := newTestCatalog(t)
	bad := []string{
		"SELECT missing FROM events",
		"SELECT day FROM nope",
		"SELECT day FROM events, events",
		"SELECT day FROM events WHERE SUM(amount) > 1",
		"SELECT day, amount FROM events GROUP BY day",
		"SELECT * FROM events GROUP BY day",
		"SELECT day FROM events HAVING COUNT(*) > 1 ",
		"SELECT day FROM events ORDER BY 99",
	}
	for _, q := range bad {
		stmt, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := NewPlanner(c).PlanSelect(stmt); err == nil {
			t.Errorf("expected planning error for %q", q)
		}
	}
	// HAVING without aggregation is rejected at planning time.
	stmt, _ := sql.ParseSelect("SELECT day FROM events GROUP BY day HAVING kind > 'a'")
	if _, err := NewPlanner(c).PlanSelect(stmt); err == nil {
		t.Error("HAVING over non-grouped column should fail")
	}
}

func TestGroupPrefixOfOrdering(t *testing.T) {
	if !groupPrefixOfOrdering(nil, nil) {
		t.Error("empty group-by is always streamable")
	}
	if !groupPrefixOfOrdering([]int{1, 0}, []int{0, 1, 2}) {
		t.Error("permuted prefix should qualify")
	}
	if groupPrefixOfOrdering([]int{2}, []int{0, 1, 2}) {
		t.Error("non-prefix column should not qualify")
	}
	if groupPrefixOfOrdering([]int{0, 1}, []int{0}) {
		t.Error("ordering shorter than group-by should not qualify")
	}
}

func TestSargableConstraints(t *testing.T) {
	c := newTestCatalog(t)
	tbl, _ := c.Table("events")
	conjuncts := []sql.Expr{
		&sql.BinExpr{Op: ">", L: &sql.ColRef{Column: "day"}, R: &sql.Literal{Val: value.MustParseDate("2008-02-01")}},
		&sql.BinExpr{Op: "<=", L: &sql.Literal{Val: value.NewInt(10)}, R: &sql.ColRef{Column: "user_id"}},
		&sql.BetweenExpr{E: &sql.ColRef{Column: "amount"}, Lo: &sql.Literal{Val: value.NewInt(1)}, Hi: &sql.Literal{Val: value.NewInt(5)}},
		// Not sargable: column-to-column comparison.
		&sql.BinExpr{Op: "=", L: &sql.ColRef{Column: "user_id"}, R: &sql.ColRef{Column: "amount"}},
	}
	got := sargableConstraints(tbl, "events", conjuncts)
	if len(got) != 3 {
		t.Fatalf("constraints = %d, want 3", len(got))
	}
	day := got[tbl.ColumnIndex("day")]
	if day == nil || !day.hasLo || day.loIncl {
		t.Errorf("day constraint = %+v", day)
	}
	user := got[tbl.ColumnIndex("user_id")]
	if user == nil || !user.hasLo || !user.loIncl {
		t.Errorf("user_id constraint (flipped <=) = %+v", user)
	}
	amount := got[tbl.ColumnIndex("amount")]
	if amount == nil || !amount.hasLo || !amount.hasHi {
		t.Errorf("amount BETWEEN constraint = %+v", amount)
	}
}

// TestSargableBoundsKeepTheTighter: several bounds on one side of a column
// keep the tightest, whatever the order of their conjuncts; at a tie the
// exclusive one. Only range predicates bound a seek.
func TestSargableBoundsKeepTheTighter(t *testing.T) {
	c := newTestCatalog(t)
	tbl, _ := c.Table("events")
	day := tbl.ColumnIndex("day")
	where := func(s string) []sql.Expr {
		stmt, err := sql.ParseSelect("SELECT day FROM events WHERE " + s)
		if err != nil {
			t.Fatal(err)
		}
		return sql.SplitConjuncts(stmt.Where)
	}
	cases := []struct {
		where          string
		lo, hi         string // "" = open
		loIncl, hiIncl bool
	}{
		{"day < DATE '2008-01-10' AND day < DATE '2008-06-01'", "", "2008-01-10", false, false},
		{"day < DATE '2008-06-01' AND day < DATE '2008-01-10'", "", "2008-01-10", false, false},
		{"day <= DATE '2008-01-10' AND day < DATE '2008-01-10'", "", "2008-01-10", false, false},
		{"day < DATE '2008-01-10' AND day <= DATE '2008-01-10'", "", "2008-01-10", false, false},
		{"DATE '2008-01-05' < day AND day >= DATE '2008-01-02' AND day BETWEEN DATE '2008-01-01' AND DATE '2008-02-01'",
			"2008-01-05", "2008-02-01", false, true},
		{"day > DATE '2008-01-01' AND day = DATE '2008-01-20' AND day <= DATE '2008-03-01'", "2008-01-20", "2008-01-20", true, true},
		// Not ranges: they bound no seek.
		{"day <> DATE '2008-01-10' AND day IN (DATE '2008-01-02') AND day NOT BETWEEN DATE '2008-01-01' AND DATE '2008-01-03'", "", "", false, false},
	}
	for _, tc := range cases {
		r := sargableConstraints(tbl, "events", where(tc.where))[day]
		if tc.lo == "" && tc.hi == "" {
			if r != nil {
				t.Errorf("%s: constraint %+v, want none", tc.where, r)
			}
			continue
		}
		if r == nil {
			t.Errorf("%s: no constraint", tc.where)
			continue
		}
		if r.hasLo != (tc.lo != "") || r.hasLo && (r.lo.String() != tc.lo || r.loIncl != tc.loIncl) {
			t.Errorf("%s: lower bound %v (incl %v, set %v), want %q (incl %v)", tc.where, r.lo, r.loIncl, r.hasLo, tc.lo, tc.loIncl)
		}
		if r.hasHi != (tc.hi != "") || r.hasHi && (r.hi.String() != tc.hi || r.hiIncl != tc.hiIncl) {
			t.Errorf("%s: upper bound %v (incl %v, set %v), want %q (incl %v)", tc.where, r.hi, r.hiIncl, r.hasHi, tc.hi, tc.hiIncl)
		}
	}
}
