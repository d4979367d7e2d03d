package sql

import (
	"reflect"
	"testing"
	"time"

	"oldelephant/internal/value"
)

// parseDeadline bounds one Parse or Normalize call in these tests. Both are
// linear in the input, so a call that outlives it is a hang, not a slow
// machine.
const parseDeadline = 2 * time.Second

// parseWithin parses input on its own goroutine and fails the test if Parse
// panics or does not return within parseDeadline. It returns Parse's error.
func parseWithin(t *testing.T, input string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse(%q) panicked: %v", input, r)
				done <- nil
			}
		}()
		Normalize(input)
		_, err := Parse(input)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(parseDeadline):
		t.Fatalf("Parse(%q) did not return within %v", input, parseDeadline)
		return nil
	}
}

// TestParseUnterminatedHints: an OPTION hint list that reaches the end of
// the input is a parse error. The hint loop used to spin at EOF, appending
// to its word list until memory ran out.
func TestParseUnterminatedHints(t *testing.T) {
	for _, input := range []string{
		"SELECT a FROM t OPTION(x",
		"SELECT a FROM t OPTION(",
		"SELECT a FROM t OPTION(LOOP JOIN,",
		"SELECT a FROM t OPTION(LOOP JOIN, HASH AGG",
	} {
		if err := parseWithin(t, input); err == nil {
			t.Errorf("Parse(%q) succeeded, want an error", input)
		}
	}
}

// FuzzParse holds the parser and the normalizer to two properties on any
// input: no panic, and a return within parseDeadline. testdata/fuzz/FuzzParse
// keeps the inputs that once broke either.
// parseSeeds seed FuzzParse, FuzzParameterize and FuzzShapeOf.
var parseSeeds = []string{
	"SELECT a FROM t OPTION(LOOP JOIN, HASH AGG)",
	"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-06-01' GROUP BY l_suppkey ORDER BY 2 DESC LIMIT 5",
	"SELECT x.a, SUM(y.b) FROM (SELECT a FROM t) x JOIN u y ON x.a = y.a WHERE y.b BETWEEN 1 AND 3 GROUP BY x.a HAVING SUM(y.b) > 2",
	"EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE a IN (1, 2) AND b IS NOT NULL OR NOT c LIKE 'x%'",
	"CREATE TABLE t (a INT, b VARCHAR(8), PRIMARY KEY (a))",
	"CREATE MATERIALIZED VIEW v AS SELECT a, COUNT(*) FROM t GROUP BY a",
	"INSERT INTO t (a, b) VALUES (1, 'it''s'), (2 * 3, NULL)",
	"select -- comment\n a from t;",
	// Quoted identifiers: unterminated, empty, and a doubled-quote escape.
	`SELECT "x FROM t`,
	`SELECT a AS "" FROM t`,
	`SELECT COUNT(*) AS "say ""hi""", "select"."from" FROM "select" ORDER BY "say ""hi"""`,
	// A hint word and a function name that are no valid UTF-8.
	"SELECT 0 OPTION(\xe7)",
	"SELECT \xe7(1) FROM t",
}

func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		parseWithin(t, input)
	})
}

// FuzzParameterize holds Parameterize and Bind to their contract on any
// SELECT the parser accepts (an EXPLAIN's included): taking out the literals
// of the top-level column equalities — every one, or those whose literal's
// hash picks them — never panics and never changes the statement it was
// given, and binding the literals back renders exactly what the parsed
// statement renders. It starts from FuzzParse's seeds.
func FuzzParameterize(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed, uint8(0))
	}
	f.Add("SELECT a FROM t WHERE (k = 1 AND 'x' = s) AND (d = DATE '1995-01-02' AND j = -9223372036854775808 AND f = 2.0)", uint8(5))
	f.Add("SELECT a FROM t WHERE k = NULL AND k = k AND 1 = 1 AND (k = 2 OR k = 3)", uint8(0))
	f.Fuzz(func(t *testing.T, input string, mask uint8) {
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		if e, ok := stmt.(*ExplainStmt); ok {
			stmt = e.Query
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			return
		}
		want := sel.String()
		n := 0
		shape, args := Parameterize(sel, func(_ *ColRef, lit value.Value) bool {
			n++
			return mask == 0 || mask>>(n%8)&1 == 1
		})
		if got := sel.String(); got != want {
			t.Fatalf("Parameterize changed the statement: %q, was %q", got, want)
		}
		if shape == nil {
			if args != nil {
				t.Fatalf("no shape but %d literals", len(args))
			}
			return
		}
		if got := Bind(shape, args).String(); got != want {
			t.Fatalf("bound shape %q renders %q, want %q", shape, got, want)
		}
	})
}

// FuzzShapeOf holds ShapeOf to its contract on any SELECT the parser accepts
// (an EXPLAIN's included): it never panics, a shape has the same source as
// itself, and the statement and the re-parse of its rendering (OPTION hints
// left out) have equal shapes. It starts from FuzzParse's seeds.
func FuzzShapeOf(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Add("SELECT a AS x, b, SUM(c * d) FROM t, u v WHERE a = b AND v.e = t.a AND b = a AND 3 < c AND c <> d + 1 GROUP BY a, b ORDER BY x DESC, b LIMIT 2 OFFSET 1")
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		if e, ok := stmt.(*ExplainStmt); ok {
			stmt = e.Query
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok {
			return
		}
		shape, err := ShapeOf(sel)
		if err != nil {
			return
		}
		if !shape.SameSource(shape) {
			t.Fatalf("%q: the shape's source differs from itself: %+v", input, shape)
		}
		// A shape holds no OPTION hints, so the rendering leaves them out.
		unhinted := *sel
		unhinted.Hints = nil
		text := unhinted.String()
		again, err := ParseSelect(text)
		if err != nil {
			t.Fatalf("%q renders %q, which does not parse: %v", input, text, err)
		}
		reshape, err := ShapeOf(again)
		if err != nil {
			t.Fatalf("%q renders %q, which has no shape: %v", input, text, err)
		}
		if !reflect.DeepEqual(shape, reshape) {
			t.Fatalf("%q and its rendering %q have different shapes:\n%+v\n%+v", input, text, shape, reshape)
		}
	})
}
