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
// index and enough rows for the cost model to prefer seeks over scans.
func newTestCatalog(t *testing.T) *catalog.Catalog {
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
	for i := 0; i < 5000; i++ {
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
	c := newTestCatalog(t)
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
	c := newTestCatalog(t)
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
