package bench

import (
	"fmt"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
)

// bandJoinOf plans query over e's catalog and returns its first index
// nested-loop join, outermost first.
func bandJoinOf(t *testing.T, e *engine.Engine, query string) *exec.IndexNestedLoopJoin {
	t.Helper()
	p := planSerial(t, e, query)
	var find func(op exec.Operator) *exec.IndexNestedLoopJoin
	find = func(op exec.Operator) *exec.IndexNestedLoopJoin {
		if j, ok := op.(*exec.IndexNestedLoopJoin); ok {
			return j
		}
		if par, ok := op.(exec.Parent); ok {
			for i := 0; par.Child(i) != nil; i++ {
				if j := find(*par.Child(i)); j != nil {
					return j
				}
			}
		}
		return nil
	}
	j := find(p.Root)
	if j == nil {
		t.Fatalf("%s: no index nested-loop join in %s", query, p.Explain)
	}
	return j
}

// TestBandResidualDropsExactBounds: a band join re-checks no conjunct its
// seek bounds restate exactly. Q4's Row(Col) join probes a c-table clustered
// on f alone with f BETWEEN f' AND f' + c' - 1, so it has no residual: the
// band goes to the seek spec's Band, which the join checks only for bound
// values not of the key's kind. The same band over the leading column of a
// composite key is a prefix cut, and it stays in the residual.
func TestBandResidualDropsExactBounds(t *testing.T) {
	h := executorModes(t)["compressed-vector"]
	spec := h.specs()["Q4"]
	query, _, _ := spec.resolve(h, 1)
	sqlText, err := h.strategySQL("Q4", spec, StrategyRowCol, query)
	if err != nil {
		t.Fatal(err)
	}
	if j := bandJoinOf(t, h.Engine, sqlText); j.Residual != nil || j.Inner.Band == nil {
		t.Errorf("Q4 Row(Col): band join residual %v, band %v; want no residual and the band in the seek spec", j.Residual, j.Inner.Band)
	}

	e, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, s := range []string{
		"CREATE TABLE o (lo INT, n INT)",
		"CREATE TABLE single (a INT, b INT, PRIMARY KEY (a))",
		"CREATE TABLE composite (a INT, b INT, PRIMARY KEY (a, b))",
		"INSERT INTO o VALUES (1, 2), (3, 1), (4, 3)",
		"INSERT INTO single VALUES (1, 10), (2, 20), (3, 30), (4, 40), (6, 60)",
		"INSERT INTO composite VALUES (1, 10), (2, 20), (3, 30), (4, 40), (6, 60)",
	} {
		if _, err := e.Execute(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	const band = "SELECT COUNT(*), SUM(t.b) FROM o, %s t WHERE t.a BETWEEN o.lo AND o.lo + o.n - 1"
	for _, c := range []struct {
		table string
		exact bool
	}{{"single", true}, {"composite", false}} {
		q := fmt.Sprintf(band, c.table)
		j := bandJoinOf(t, e, q)
		if got := j.Residual == nil && j.Inner.Band != nil; got != c.exact {
			t.Errorf("%s: residual %v, band %v; want the band dropped from the residual: %v", c.table, j.Residual, j.Inner.Band, c.exact)
		}
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].String() != "5" || res.Rows[0][1].String() != "160" {
			t.Errorf("%s: %s = %v, want 5 rows summing to 160", c.table, q, res.Rows)
		}
	}

	// A one-sided conjunct that takes over one side of a BETWEEN or an
	// equality leaves the seek enforcing only the other side of it, so that
	// conjunct stays in the residual, and the join returns the rows of a plan
	// with no seek.
	for _, s := range []string{
		"CREATE TABLE p (lo INT, hi INT, z INT)",
		"INSERT INTO p VALUES (1, 2, 5), (2, 4, 3), (3, 3, 7), (0, 6, 2), (1, 6, 5)",
	} {
		if _, err := e.Execute(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	const mixed = "SELECT p.lo, p.hi, p.z, t.a, t.b FROM p, single t WHERE %s ORDER BY p.lo, p.hi, p.z, t.a OPTION(%s JOIN)"
	for _, where := range []string{
		"t.a BETWEEN p.lo AND p.hi AND t.a < p.z",
		"t.a BETWEEN p.lo AND p.hi AND t.a >= p.z",
		"t.a = p.hi AND t.a > p.lo",
		"t.a = p.lo AND t.a <= p.z",
		"t.a < p.z AND t.a BETWEEN p.lo AND p.hi",
	} {
		q := fmt.Sprintf(mixed, where, "LOOP")
		if j := bandJoinOf(t, e, q); j.Residual == nil {
			t.Errorf("%s: no residual; want the conjunct the seek enforces on one side only kept in it", where)
		}
		got, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Query(fmt.Sprintf(mixed, where, "HASH"))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s: band join rows %v, want the rows of a plan with no seek, %v", where, got.Rows, want.Rows)
		}
	}
}
