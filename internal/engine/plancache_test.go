package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"oldelephant/internal/sql"
	"oldelephant/internal/value"
)

// newCachedEngine builds an engine with a populated table and the plan cache
// enabled (bounded to cacheSize statements when that is positive).
func newCachedEngine(t *testing.T, cacheSize, rows int) *Engine {
	t.Helper()
	e := New(Options{})
	if cacheSize > 0 {
		e.plans = newPlanCache(cacheSize)
	}
	if _, err := e.Execute("CREATE TABLE items (id INT, grp INT, amount FLOAT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	data := make([][]value.Value, rows)
	for i := range data {
		data[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 7)),
			value.NewFloat(float64(i % 100)),
		}
	}
	if err := e.BulkLoad("items", data); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM t", "select * from t"},
		{"  SELECT\t*\n  FROM   t ;", "select * from t"},
		{"select id from T where name = 'MiXeD  Case'", "select id from t where name = 'MiXeD  Case'"},
		{"select 'it''s  A' FROM t", "select 'it''s  A' from t"},
		{"SELECT 1;;", "select 1"},
	}
	for _, c := range cases {
		if got := sql.Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Line comments normalize away like the lexer skips them — and can never
	// swallow differing statement text into an identical key (a trailing
	// comment without a newline comments out the rest of the line, so those
	// two spellings parse differently and must key differently).
	if sql.Normalize("SELECT a FROM t -- note\nWHERE b = 1") != "select a from t where b = 1" {
		t.Errorf("comment+newline did not normalize to a space: %q",
			sql.Normalize("SELECT a FROM t -- note\nWHERE b = 1"))
	}
	if sql.Normalize("SELECT a FROM t -- note WHERE b = 1") != "select a from t" {
		t.Errorf("trailing comment was not dropped: %q",
			sql.Normalize("SELECT a FROM t -- note WHERE b = 1"))
	}
	if sql.Normalize("SELECT a FROM t -- note\nWHERE b = 1") == sql.Normalize("SELECT a FROM t -- note WHERE b = 1") {
		t.Error("statements that parse differently share a cache key")
	}
	// The equivalence that matters for the cache: same statement, different
	// spelling, one key; different literals, different keys.
	if sql.Normalize("SELECT grp FROM items") != sql.Normalize("select   GRP from ITEMS;") {
		t.Error("case/whitespace variants of one statement got different keys")
	}
	if sql.Normalize("SELECT 'a' FROM t") == sql.Normalize("SELECT 'A' FROM t") {
		t.Error("distinct string literals collided")
	}
}

// TestPlanCacheHitAndSpellings: the first execution misses, repeats lease the
// compiled plan, and keyword-case/whitespace respellings share the entry.
func TestPlanCacheHitAndSpellings(t *testing.T) {
	e := newCachedEngine(t, 0, 500)
	base := e.PlanCacheStats()
	res, err := e.Query("SELECT grp, COUNT(*) FROM items GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCached {
		t.Error("first execution claims a cache hit")
	}
	for _, respelled := range []string{
		"SELECT grp, COUNT(*) FROM items GROUP BY grp",
		"select   grp, count(*) from ITEMS group by grp;",
	} {
		res, err = e.Query(respelled)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.PlanCached {
			t.Errorf("respelled query %q missed the cache", respelled)
		}
		if len(res.Rows) != 7 {
			t.Fatalf("cached execution returned %d rows, want 7", len(res.Rows))
		}
	}
	s := e.PlanCacheStats()
	if hits := s.Hits - base.Hits; hits != 2 {
		t.Errorf("got %d cache hits, want 2", hits)
	}
	if misses := s.Misses - base.Misses; misses != 1 {
		t.Errorf("got %d misses, want 1", misses)
	}
}

// TestRespellingsAnswerWithOwnLabels: statements that share a plan-cache
// entry or a prepared shape with a spelling of other labels keep sharing it,
// and each answers under its own labels, a star's expansion included.
func TestRespellingsAnswerWithOwnLabels(t *testing.T) {
	e := newCachedEngine(t, 0, 500)
	check := func(what string, res *Result, cached bool, want ...string) {
		t.Helper()
		if res.Stats.PlanCached != cached {
			t.Errorf("%s: cached %v, want %v", what, res.Stats.PlanCached, cached)
		}
		if strings.Join(res.Columns, ",") != strings.Join(want, ",") {
			t.Errorf("%s: columns %q, want %q", what, res.Columns, want)
		}
	}
	for i, c := range []struct {
		text string
		want []string
	}{
		{"SELECT grp AS Foo FROM items WHERE id = 1", []string{"Foo"}},
		{"SELECT grp AS foo FROM items WHERE id = 1", []string{"foo"}},
		{"select GRP as FOO from items where id = 1", []string{"FOO"}},
		{"SELECT grp AS Foo FROM items WHERE id = 1", []string{"Foo"}},
		{"SELECT *, amount AS A FROM items WHERE id < 3", []string{"id", "grp", "amount", "A"}},
		{"SELECT *, amount AS a FROM items WHERE id < 3", []string{"id", "grp", "amount", "a"}},
	} {
		res, err := e.Query(c.text)
		if err != nil {
			t.Fatal(err)
		}
		check(c.text, res, i%4 != 0, c.want...)
	}

	// A prepared statement per text shares the entry of an ad-hoc spelling.
	if _, err := e.Query("SELECT grp AS G, COUNT(*) FROM items GROUP BY grp"); err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare("select grp as g, count(*) from items group by grp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryPrepared(QueryOptions{}, p)
	if err != nil {
		t.Fatal(err)
	}
	check(p.Text, res, true, "g", "COUNT(*)")

	// Point lookups of one shape, each under its own labels.
	texts := []string{
		"SELECT amount AS Amt FROM items WHERE id = 1",
		"SELECT amount AS amt FROM items WHERE id = 2",
		"SELECT amount AS AMT FROM items WHERE id = 3",
	}
	var handles []*Prepared
	for _, text := range texts {
		p, err := e.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, p)
	}
	if handles[0].shape == nil || handles[0].shape != handles[1].shape || handles[1].shape != handles[2].shape {
		t.Fatal("the point lookups do not share one shape")
	}
	for round := 0; round < 2; round++ {
		for i, p := range handles {
			res, err := e.QueryPrepared(QueryOptions{}, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].Float() != float64(i+1) {
				t.Fatalf("%s: rows %v", p.Text, res.Rows)
			}
			check(p.Text, res, round > 0 || i > 0, strings.Fields(p.Text)[3])
		}
	}
}

// TestPlanCacheQuotedAliasesKeyApart: a quoted alias is the result column's
// label byte for byte, so spellings that differ only inside one get their own
// plan-cache entries and answer with their own labels.
func TestPlanCacheQuotedAliasesKeyApart(t *testing.T) {
	e := newCachedEngine(t, 0, 500)
	base := e.PlanCacheStats()
	for _, label := range []string{"COUNT(*)", "count(*)", "Count (*)", `say "n"`} {
		q := `SELECT grp, COUNT(*) AS "` + strings.ReplaceAll(label, `"`, `""`) + `" FROM items GROUP BY grp`
		for run := 0; run < 2; run++ {
			res, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PlanCached != (run == 1) {
				t.Errorf("%s run %d: cached %v", q, run, res.Stats.PlanCached)
			}
			if len(res.Columns) != 2 || res.Columns[1] != label {
				t.Errorf("%s run %d: columns %q, want label %q", q, run, res.Columns, label)
			}
		}
	}
	if misses := e.PlanCacheStats().Misses - base.Misses; misses != 4 {
		t.Errorf("got %d misses, want one per spelling (4)", misses)
	}
}

// TestPlanCacheKnobKeying: the same SQL at different parallelism (and on
// engines with different executor knobs) must not share plan instances —
// the knobs are part of the key.
func TestPlanCacheKnobKeying(t *testing.T) {
	e := newCachedEngine(t, 0, 20000)
	q := "SELECT grp, COUNT(*) FROM items WHERE amount > 10 GROUP BY grp"
	r1, err := e.QueryWith(QueryOptions{Parallelism: 1}, q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.QueryWith(QueryOptions{Parallelism: 2}, q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.PlanCached {
		t.Error("parallelism=2 execution leased the parallelism=1 plan")
	}
	if r1.Plan == r2.Plan {
		t.Errorf("expected distinct plan annotations, both %q", r1.Plan)
	}
	// Same parallelism again: now it hits, and executes the parallel form.
	r3, err := e.QueryWith(QueryOptions{Parallelism: 2}, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Stats.PlanCached {
		t.Error("repeat parallelism=2 execution missed the cache")
	}
	if r3.Plan != r2.Plan {
		t.Errorf("cached parallel plan %q != first parallel plan %q", r3.Plan, r2.Plan)
	}
}

// TestPlanCacheInvalidation: any mutating statement clears the cache, and
// the next execution replans against the new state.
func TestPlanCacheInvalidation(t *testing.T) {
	e := newCachedEngine(t, 0, 500)
	q := "SELECT COUNT(*) FROM items"
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCached {
		t.Fatal("warm-up did not populate the cache")
	}
	if got := res.Rows[0][0].Int(); got != 500 {
		t.Fatalf("count = %d, want 500", got)
	}
	if _, err := e.Execute("INSERT INTO items (id, grp, amount) VALUES (1000, 1, 1.5)"); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCached {
		t.Error("execution after INSERT leased a stale plan")
	}
	if got := res.Rows[0][0].Int(); got != 501 {
		t.Errorf("count after insert = %d, want 501", got)
	}
	s := e.PlanCacheStats()
	if s.Invalidations == 0 {
		t.Error("no invalidation recorded")
	}
}

// TestPlanCacheLRUEviction: a capacity-bounded cache drops the least
// recently used statement.
func TestPlanCacheLRUEviction(t *testing.T) {
	e := newCachedEngine(t, 2, 100)
	queries := []string{
		"SELECT COUNT(*) FROM items WHERE grp = 0",
		"SELECT COUNT(*) FROM items WHERE grp = 1",
		"SELECT COUNT(*) FROM items WHERE grp = 2",
	}
	for _, q := range queries {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	s := e.PlanCacheStats()
	if s.Entries != 2 {
		t.Errorf("cache holds %d entries, want capacity 2", s.Entries)
	}
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	// queries[0] was evicted (LRU); queries[2] is resident.
	res, err := e.Query(queries[2])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCached {
		t.Error("most recent statement was evicted")
	}
	res, err = e.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCached {
		t.Error("least recently used statement survived eviction")
	}
}

// TestPlanCacheConcurrentSameQuery: many goroutines running the identical
// statement lease distinct plan instances (or replan from the shared AST)
// and all produce the correct result.
func TestPlanCacheConcurrentSameQuery(t *testing.T) {
	e := newCachedEngine(t, 0, 2000)
	q := "SELECT grp, COUNT(*) FROM items GROUP BY grp"
	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := e.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != len(want.Rows) {
					errs <- fmt.Errorf("got %d rows, want %d", len(res.Rows), len(want.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPreparedStatement: a prepared handle executes correctly, hits the plan
// cache on repeats, and keeps working (replanning, not reparsing) across an
// invalidation.
func TestPreparedStatement(t *testing.T) {
	e := newCachedEngine(t, 0, 500)
	p, err := e.Prepare("SELECT grp, COUNT(*) FROM items WHERE amount > 50 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.QueryPrepared(QueryOptions{}, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.QueryPrepared(QueryOptions{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats.PlanCached {
		t.Error("second prepared execution missed the cache")
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Errorf("prepared executions disagree: %d vs %d rows", len(r1.Rows), len(r2.Rows))
	}
	if _, err := e.Execute("INSERT INTO items (id, grp, amount) VALUES (2000, 3, 99.0)"); err != nil {
		t.Fatal(err)
	}
	r3, err := e.QueryPrepared(QueryOptions{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.PlanCached {
		t.Error("prepared execution after invalidation leased a stale plan")
	}
}

// TestQueryTimeout: a context that is already done cancels the query, and a
// generous deadline does not.
func TestQueryTimeout(t *testing.T) {
	e := newCachedEngine(t, 0, 5000)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryWith(QueryOptions{Ctx: canceled}, "SELECT COUNT(*) FROM items"); err == nil {
		t.Error("canceled context did not abort the query")
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := e.QueryWith(QueryOptions{Ctx: ctx}, "SELECT COUNT(*) FROM items"); err != nil {
		t.Errorf("query under a generous deadline failed: %v", err)
	}
}
