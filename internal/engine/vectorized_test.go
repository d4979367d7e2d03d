package engine

import (
	"testing"
)

// TestVectorizedKnobDefaults pins the Options contract: the zero value runs
// vectorized and DisableVectorized — the one switch — forces the row path.
func TestVectorizedKnobDefaults(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want bool
	}{
		{"zero value", Options{}, true},
		{"disabled", Options{DisableVectorized: true}, false},
	}
	for _, c := range cases {
		if got := New(c.opts).Vectorized(); got != c.want {
			t.Errorf("%s: Vectorized() = %v, want %v", c.name, got, c.want)
		}
	}
	if !Default().Vectorized() {
		t.Error("Default() engine is not vectorized")
	}
}

// TestVectorizedEngineEquivalence runs a small SQL workload through both
// executor modes end to end (DDL, load, query) and requires identical
// results, including plans and row order.
func TestVectorizedEngineEquivalence(t *testing.T) {
	setup := []string{
		"CREATE TABLE t (a INT, b INT, c FLOAT, d VARCHAR, PRIMARY KEY (a))",
		"CREATE INDEX ix_b ON t (b) INCLUDE (c)",
		"CREATE TABLE u (k INT, label VARCHAR)",
	}
	queries := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT * FROM t WHERE a BETWEEN 10 AND 40",
		"SELECT b, COUNT(*), SUM(c) FROM t WHERE a > 5 GROUP BY b",
		"SELECT d, MIN(a), MAX(c) FROM t GROUP BY d ORDER BY d DESC",
		"SELECT a, b FROM t WHERE b = 3 ORDER BY a LIMIT 7",
		"SELECT DISTINCT b FROM t WHERE c > 50",
		"SELECT b, AVG(c) FROM t WHERE d = 'x' OR b < 2 GROUP BY b",
		"SELECT 1 + 2, 'const'",
		// Equi-joins compile to VectorizedHashJoin on the batch engine and
		// HashJoin on the row engine; results and plan text must be identical.
		"SELECT label, COUNT(*), SUM(c) FROM t, u WHERE b = k GROUP BY label OPTION(HASH JOIN)",
		"SELECT a, label FROM t, u WHERE b = k AND c > 80 ORDER BY a, label LIMIT 25 OPTION(HASH JOIN)",
	}
	build := func(disable bool) *Engine {
		e := New(Options{DisableVectorized: disable})
		for _, s := range setup {
			if _, err := e.Execute(s); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 500; i++ {
			ins := "INSERT INTO t VALUES (" +
				itoa(i) + ", " + itoa(i%5) + ", " + itoa(i%100) + ".5, '" + string(rune('w'+i%4)) + "')"
			if _, err := e.Execute(ins); err != nil {
				t.Fatal(err)
			}
		}
		// u holds duplicate join keys (two labels per key 0..4) plus keys that
		// match nothing, so joins fan out and drop rows.
		for i := 0; i < 14; i++ {
			ins := "INSERT INTO u VALUES (" + itoa(i%7) + ", '" + string(rune('p'+i)) + "')"
			if _, err := e.Execute(ins); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	vec, row := build(false), build(true)
	for _, q := range queries {
		vres, err := vec.Query(q)
		if err != nil {
			t.Fatalf("vectorized %q: %v", q, err)
		}
		rres, err := row.Query(q)
		if err != nil {
			t.Fatalf("row %q: %v", q, err)
		}
		if vres.Plan != rres.Plan {
			t.Errorf("%q: plans differ: %s vs %s", q, vres.Plan, rres.Plan)
		}
		if len(vres.Rows) != len(rres.Rows) {
			t.Errorf("%q: %d rows vectorized, %d rows row-at-a-time", q, len(vres.Rows), len(rres.Rows))
			continue
		}
		for i := range vres.Rows {
			for j := range vres.Rows[i] {
				v, w := vres.Rows[i][j], rres.Rows[i][j]
				if v.Kind != w.Kind || v.String() != w.String() {
					t.Errorf("%q: row %d col %d: %v (%v) vs %v (%v)", q, i, j, v, v.Kind, w, w.Kind)
				}
			}
		}
	}
}

func itoa(i int) string {
	if i < 0 {
		return "-" + itoa(-i)
	}
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}
