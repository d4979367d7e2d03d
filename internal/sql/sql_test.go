package sql

import (
	"strings"
	"testing"

	"oldelephant/internal/value"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-06-01' -- comment\n GROUP BY l_suppkey;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokKeyword || toks[0].Text != "SELECT" {
		t.Errorf("first token = %+v", toks[0])
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Error("missing EOF token")
	}
	// Strings with escaped quotes.
	toks, err = Lex("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokString || toks[0].Text != "it's" {
		t.Errorf("escaped string = %+v", toks[0])
	}
	// Errors.
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex("SELECT @x"); err == nil {
		t.Error("unexpected character should fail")
	}
	// Two-char operators.
	toks, _ = Lex("a <= b >= c <> d != e")
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TokOperator {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<=", ">=", "<>", "!="}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("operator %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestParseQ1StyleQuery(t *testing.T) {
	stmt, err := ParseSelect(`
		SELECT l_shipdate, COUNT(*)
		FROM lineitem
		WHERE l_shipdate > DATE '1995-06-01'
		GROUP BY l_shipdate`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Select) != 2 {
		t.Fatalf("select items = %d", len(stmt.Select))
	}
	if fc, ok := stmt.Select[1].Expr.(*FuncCall); !ok || !fc.Star || fc.Name != "COUNT" {
		t.Errorf("second item should be COUNT(*), got %v", stmt.Select[1].Expr)
	}
	if len(stmt.From) != 1 || stmt.From[0].Table != "lineitem" {
		t.Errorf("from = %v", stmt.From)
	}
	be, ok := stmt.Where.(*BinExpr)
	if !ok || be.Op != ">" {
		t.Fatalf("where = %v", stmt.Where)
	}
	lit, ok := be.R.(*Literal)
	if !ok || lit.Val.Kind != value.KindDate {
		t.Errorf("date literal not parsed: %v", be.R)
	}
	if len(stmt.GroupBy) != 1 {
		t.Errorf("group by = %v", stmt.GroupBy)
	}
	if stmt.Limit != -1 {
		t.Errorf("limit should default to -1")
	}
}

func TestParseJoinQueryWithAliases(t *testing.T) {
	stmt, err := ParseSelect(`
		SELECT c_nationkey, SUM(l_extendedprice)
		FROM lineitem, orders, customer
		WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND l_returnflag = 'R'
		GROUP BY c_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 3 {
		t.Fatalf("from list = %v", stmt.From)
	}
	// The WHERE clause should be a tree of three conjuncts.
	count := countConjuncts(stmt.Where)
	if count != 3 {
		t.Errorf("conjuncts = %d, want 3", count)
	}
}

func countConjuncts(e Expr) int {
	if b, ok := e.(*BinExpr); ok && b.Op == "AND" {
		return countConjuncts(b.L) + countConjuncts(b.R)
	}
	return 1
}

func TestParseExplicitJoinFoldsIntoWhere(t *testing.T) {
	stmt, err := ParseSelect(`
		SELECT o_orderdate, MAX(l_shipdate)
		FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey
		WHERE o_orderdate > DATE '1995-01-01'
		GROUP BY o_orderdate`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 2 {
		t.Fatalf("explicit join should produce two FROM entries, got %d", len(stmt.From))
	}
	if countConjuncts(stmt.Where) != 2 {
		t.Errorf("ON predicate should be merged into WHERE")
	}
	// CROSS JOIN also folds in.
	stmt, err = ParseSelect("SELECT a FROM t1 CROSS JOIN t2")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 2 {
		t.Errorf("cross join FROM entries = %d", len(stmt.From))
	}
}

func TestParseDerivedTableAndBetween(t *testing.T) {
	// This is the shape of the paper's optimized Q3 rewriting.
	stmt, err := ParseSelect(`
		SELECT T1.v, SUM(T1.c)
		FROM (SELECT MIN(T0.f) AS xMin, MAX(T0.f + T0.c - 1) AS xMax
		      FROM D1_l_shipdate T0 WHERE T0.v > DATE '1995-06-01') T0Agg,
		     D1_l_suppkey T1
		WHERE T1.f BETWEEN T0Agg.xMin AND T0Agg.xMax
		GROUP BY T1.v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 2 {
		t.Fatalf("from = %v", stmt.From)
	}
	sub := stmt.From[0]
	if sub.Subquery == nil || sub.Alias != "T0Agg" {
		t.Fatalf("derived table not parsed: %+v", sub)
	}
	if len(sub.Subquery.Select) != 2 {
		t.Errorf("subquery select items = %d", len(sub.Subquery.Select))
	}
	if sub.Subquery.Select[0].Alias != "xMin" {
		t.Errorf("alias = %q", sub.Subquery.Select[0].Alias)
	}
	if _, ok := stmt.Where.(*BetweenExpr); !ok {
		t.Errorf("where should be BETWEEN, got %T", stmt.Where)
	}
	// Derived tables require an alias.
	if _, err := ParseSelect("SELECT x FROM (SELECT 1)"); err == nil {
		t.Error("derived table without alias should fail")
	}
}

func TestParseQualifiedStarsAndAliases(t *testing.T) {
	stmt, err := ParseSelect("SELECT t.a AS x, b y, 3 z FROM tbl t ORDER BY x DESC, y LIMIT 10 OFFSET 2")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Select[0].Alias != "x" || stmt.Select[1].Alias != "y" || stmt.Select[2].Alias != "z" {
		t.Errorf("aliases = %+v", stmt.Select)
	}
	cr, ok := stmt.Select[0].Expr.(*ColRef)
	if !ok || cr.Table != "t" || cr.Column != "a" {
		t.Errorf("qualified ref = %+v", stmt.Select[0].Expr)
	}
	if stmt.From[0].Alias != "t" || stmt.From[0].Name() != "t" {
		t.Errorf("table alias = %+v", stmt.From[0])
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Errorf("order by = %+v", stmt.OrderBy)
	}
	if stmt.Limit != 10 || stmt.Offset != 2 {
		t.Errorf("limit/offset = %d/%d", stmt.Limit, stmt.Offset)
	}
	if _, err := ParseSelect("SELECT * FROM t"); err != nil {
		t.Errorf("SELECT * should parse: %v", err)
	}
}

func TestParseExpressionsPrecedenceAndLiterals(t *testing.T) {
	stmt, err := ParseSelect("SELECT a + b * 2, -3, 1.5, 'str', NULL, TRUE, FALSE FROM t WHERE NOT a = 1 OR b < 2 AND c IN (1,2,3) AND d IS NOT NULL AND e NOT BETWEEN 1 AND 5 AND f NOT IN (7)")
	if err != nil {
		t.Fatal(err)
	}
	// a + b*2: multiplication binds tighter.
	add, ok := stmt.Select[0].Expr.(*BinExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("expr 0 = %v", stmt.Select[0].Expr)
	}
	if mul, ok := add.R.(*BinExpr); !ok || mul.Op != "*" {
		t.Errorf("precedence wrong: %v", add.R)
	}
	if lit := stmt.Select[1].Expr.(*Literal); lit.Val.Int() != -3 {
		t.Errorf("negative literal = %v", lit.Val)
	}
	if lit := stmt.Select[2].Expr.(*Literal); lit.Val.Float() != 1.5 {
		t.Errorf("float literal = %v", lit.Val)
	}
	if lit := stmt.Select[4].Expr.(*Literal); !lit.Val.IsNull() {
		t.Errorf("NULL literal = %v", lit.Val)
	}
	// OR at top, AND below.
	or, ok := stmt.Where.(*BinExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("where top = %v", stmt.Where)
	}
	if _, ok := or.L.(*NotExpr); !ok {
		t.Errorf("NOT not parsed: %v", or.L)
	}
	s := stmt.Where.String()
	for _, frag := range []string{"IS NOT NULL", "NOT BETWEEN", "NOT IN"} {
		if !strings.Contains(s, frag) {
			t.Errorf("where rendering missing %q: %s", frag, s)
		}
	}
}

func TestParseHints(t *testing.T) {
	stmt, err := ParseSelect("SELECT a FROM t OPTION(LOOP JOIN, HASH AGG)")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Hints) != 2 || stmt.Hints[0] != "LOOP JOIN" || stmt.Hints[1] != "HASH AGG" {
		t.Errorf("hints = %v", stmt.Hints)
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE lineitem (
		l_orderkey BIGINT,
		l_suppkey INT,
		l_shipdate DATE,
		l_extendedprice DOUBLE,
		l_comment VARCHAR(44),
		PRIMARY KEY (l_shipdate, l_suppkey))`)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := stmt.(*CreateTableStmt)
	if !ok {
		t.Fatalf("statement type %T", stmt)
	}
	if ct.Name != "lineitem" || len(ct.Columns) != 5 {
		t.Errorf("create table = %+v", ct)
	}
	if ct.Columns[4].Type != "VARCHAR" {
		t.Errorf("varchar type = %q", ct.Columns[4].Type)
	}
	if len(ct.PrimaryKey) != 2 || ct.PrimaryKey[0] != "l_shipdate" {
		t.Errorf("primary key = %v", ct.PrimaryKey)
	}
	if !strings.Contains(ct.String(), "PRIMARY KEY") {
		t.Errorf("String() = %q", ct.String())
	}
}

func TestParseCreateIndexAndView(t *testing.T) {
	stmt, err := Parse("CREATE UNIQUE INDEX ix_f ON d1_l_shipdate (f) INCLUDE (v, c)")
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(*CreateIndexStmt)
	if !ci.Unique || ci.Clustered || ci.Table != "d1_l_shipdate" || len(ci.Include) != 2 {
		t.Errorf("create index = %+v", ci)
	}
	stmt, err = Parse("CREATE CLUSTERED INDEX cx ON t (a, b)")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.(*CreateIndexStmt).Clustered {
		t.Error("clustered flag lost")
	}
	stmt, err = Parse("CREATE MATERIALIZED VIEW mv23 AS SELECT l_shipdate, l_suppkey, COUNT(*) FROM lineitem GROUP BY l_shipdate, l_suppkey")
	if err != nil {
		t.Fatal(err)
	}
	cv := stmt.(*CreateViewStmt)
	if !cv.Materialized || cv.Name != "mv23" || cv.Query == nil {
		t.Errorf("create view = %+v", cv)
	}
	if !strings.Contains(cv.String(), "MATERIALIZED VIEW mv23") {
		t.Errorf("String() = %q", cv.String())
	}
	stmt, err = Parse("CREATE VIEW v AS SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*CreateViewStmt).Materialized {
		t.Error("plain view marked materialized")
	}
}

func TestParseInsertAndDrop(t *testing.T) {
	stmt, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 || len(ins.Rows[0]) != 2 {
		t.Errorf("insert = %+v", ins)
	}
	if !strings.Contains(ins.String(), "INSERT INTO t") {
		t.Errorf("String() = %q", ins.String())
	}
	stmt, err = Parse("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.(*InsertStmt).Columns) != 0 {
		t.Error("column list should be empty")
	}
	stmt, err = Parse("DROP TABLE t;")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropTableStmt).Name != "t" {
		t.Error("drop table name wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET a = 1",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a b c FROM t",
		"CREATE TABLE t",
		"CREATE TABLE t (a INT", // missing close paren
		"CREATE INDEX i ON t",
		"CREATE UNIQUE TABLE t (a INT)",
		"INSERT INTO t VALUES 1",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"SELECT a FROM t WHERE a IN 1",
		"SELECT a FROM t extra_tokens_here 123",
		"SELECT DATE 123 FROM t",
		"SELECT DATE 'not-a-date' FROM t",
		"DROP VIEW v",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

func TestStatementStringRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-06-01' GROUP BY l_shipdate",
		"SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate = DATE '1995-03-15' GROUP BY l_suppkey",
		"SELECT T1.v, SUM(T1.c) FROM d1_l_suppkey T1, d1_l_shipdate T0 WHERE T0.v > DATE '1995-06-01' AND T1.f BETWEEN T0.f AND T0.f + T0.c - 1 GROUP BY T1.v",
		"SELECT a, b FROM t WHERE a = 1 ORDER BY b DESC LIMIT 5 OFFSET 1 OPTION(LOOP JOIN)",
		// Quoted aliases: a label that is no bare identifier, a keyword, a
		// doubled quote, and a quoted name that needs no quotes.
		`SELECT T1.v AS l_suppkey, SUM(T1.c) AS "COUNT(*)" FROM d1_l_suppkey T1 GROUP BY T1.v ORDER BY "COUNT(*)" DESC`,
		`SELECT "select" AS "from", a AS "say ""hi""" FROM "my table" "t 1" WHERE "t 1"."select" > 0`,
		`SELECT "plain" AS "Mixed_Case" FROM t`,
		// A hint word or a function name that is no valid UTF-8 keeps its bytes.
		"SELECT 0 OPTION(\xe7)",
		"SELECT \xe7(1) FROM t",
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rendered := stmt.String()
		// The rendered SQL must itself parse, and render identically (fixpoint).
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", rendered, err)
		}
		if stmt2.String() != rendered {
			t.Errorf("round trip not stable:\n  first:  %s\n  second: %s", rendered, stmt2.String())
		}
	}
}

// TestFunctionNameKeepsItsBytes: a function name is upper-cased in its ASCII
// letters only, so a name that is no valid UTF-8 names the same function
// before and after a round trip through String, rather than U+FFFD.
func TestFunctionNameKeepsItsBytes(t *testing.T) {
	name := func(q string) string {
		t.Helper()
		stmt, err := ParseSelect(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		fc, ok := stmt.Select[0].Expr.(*FuncCall)
		if !ok {
			t.Fatalf("%q: first item is %T, want a function call", q, stmt.Select[0].Expr)
		}
		return fc.Name
	}
	const q = "SELECT \xe7(1) FROM t"
	stmt, err := ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	rendered := stmt.String()
	if got, again := name(q), name(rendered); got != "\xe7" || again != got {
		t.Errorf("%q names function %q, its rendering %q names %q; want %q both times", q, got, rendered, again, "\xe7")
	}
	if got := name("SELECT coUnt(*) FROM t"); got != "COUNT" {
		t.Errorf("coUnt names %q, want COUNT", got)
	}
}

// TestQuotedIdentifiers: a double-quoted identifier lexes as one identifier
// with its quotes taken off and a doubled quote standing for one; it may be a
// keyword or hold any character, and renders back quoted only when it must.
func TestQuotedIdentifiers(t *testing.T) {
	stmt, err := ParseSelect(`SELECT COUNT(*) AS "COUNT(*)", a AS "Select", b "x""y" FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"COUNT(*)", "Select", `x"y`} {
		if got := stmt.Select[i].Label(); got != want {
			t.Errorf("item %d label = %q, want %q", i, got, want)
		}
	}
	if got, want := stmt.String(), `SELECT COUNT(*) AS "COUNT(*)", a AS "Select", b AS "x""y" FROM t`; got != want {
		t.Errorf("rendered %s, want %s", got, want)
	}
	for _, bad := range []string{`SELECT "x FROM t`, `SELECT a AS "" FROM t`, `SELECT "" FROM t`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want an error", bad)
		}
	}
	// Normalize keeps a quoted identifier byte for byte, as it keeps a
	// string literal: spellings that differ inside one differ.
	if got, want := Normalize(`SELECT A AS "Cnt  ""x"""  FROM T`), `select a as "Cnt  ""x""" from t`; got != want {
		t.Errorf("Normalize = %q, want %q", got, want)
	}
	if Normalize(`SELECT a AS "Cnt" FROM t`) == Normalize(`SELECT a AS "cnt" FROM t`) {
		t.Error("quoted aliases that differ in case share a key")
	}
}

// TestSelectItemLabel: the alias, else the bare column name, else the
// expression text.
func TestSelectItemLabel(t *testing.T) {
	stmt, err := ParseSelect("SELECT x.a, b AS bee, sum(x.c), COUNT(*), a + 1 FROM t x")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "bee", "SUM(x.c)", "COUNT(*)", "(a + 1)"} {
		if got := stmt.Select[i].Label(); got != want {
			t.Errorf("item %d label = %q, want %q", i, got, want)
		}
	}
}

// TestColumnPredicateOf holds the shared conjunct classifier to its cases:
// a column compared with constants (literals, slots, arithmetic over them),
// turned around when the constant comes first; which of them are ranges;
// and column-equality joins.
func TestColumnPredicateOf(t *testing.T) {
	cases := []struct {
		where string
		ok    bool
		col   string
		op    string
		rng   bool
		on    string // the predicate applied to v
	}{
		{"a = 1", true, "a", "=", true, "(v = 1)"},
		{"10 <= a", true, "a", ">=", true, "(v >= 10)"},
		{"DATE '1995-01-01' + 3 > t.a", true, "a", "<", true, "(v < (DATE '1995-01-01' + 3))"},
		{"a <> 'x'", true, "a", "<>", false, "(v <> 'x')"},
		{"a BETWEEN 1 AND 2 * 3", true, "a", "BETWEEN", true, "(v BETWEEN 1 AND (2 * 3))"},
		{"a NOT BETWEEN 1 AND 3", true, "a", "BETWEEN", false, "(v NOT BETWEEN 1 AND 3)"},
		{"a IN (1, 2)", true, "a", "IN", false, "(v IN (1, 2))"},
		{"a NOT IN (1)", true, "a", "IN", false, "(v NOT IN (1))"},
		{"a = NULL", true, "a", "=", true, "(v = NULL)"},
		// Not constants: another column, a function, a comparison.
		{"a BETWEEN b AND c", false, "", "", false, ""},
		{"a IN (1, b)", false, "", "", false, ""},
		{"a < b + 1", false, "", "", false, ""},
		{"a = (1 = 1)", false, "", "", false, ""},
		{"a + 1 = 2", false, "", "", false, ""},
		{"1 = 1", false, "", "", false, ""},
		{"a IS NULL", false, "", "", false, ""},
		{"a = b", false, "", "", false, ""},
	}
	for _, c := range cases {
		stmt, err := ParseSelect("SELECT a FROM t WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := ColumnPredicateOf(stmt.Where)
		if ok != c.ok {
			t.Errorf("%s: classified %v, want %v", c.where, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if p.Col.Column != c.col || p.Op != c.op || p.IsRange() != c.rng {
			t.Errorf("%s: column %s op %s range %v, want %s %s %v", c.where, p.Col.Column, p.Op, p.IsRange(), c.col, c.op, c.rng)
		}
		if got := p.On(&ColRef{Column: "v"}).String(); got != c.on {
			t.Errorf("%s: on v = %s, want %s", c.where, got, c.on)
		}
	}
	// A parameter slot is a constant.
	if p, ok := ColumnPredicateOf(&BinExpr{Op: "=", L: &Param{}, R: &ColRef{Column: "k"}}); !ok || p.Col.Column != "k" {
		t.Errorf("slot equality not classified: %+v %v", p, ok)
	}
	stmt, err := ParseSelect("SELECT a FROM t WHERE x.a = y.b AND a = 1 AND a < b")
	if err != nil {
		t.Fatal(err)
	}
	var joins []string
	for _, c := range SplitConjuncts(stmt.Where) {
		if l, r, ok := ColumnJoin(c); ok {
			joins = append(joins, l.String()+"="+r.String())
		}
	}
	if len(joins) != 1 || joins[0] != "x.a=y.b" {
		t.Errorf("column joins = %v, want [x.a=y.b]", joins)
	}
	for op, want := range map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<=", "+": "", "AND": ""} {
		if got := FlipOp(op); got != want {
			t.Errorf("FlipOp(%q) = %q, want %q", op, got, want)
		}
	}
}

// TestShapeOf: a SELECT decomposes into its sorted tables, its join set
// (each join once, the lesser column first), its column filters (turned
// column-first) and the other conjuncts. Covers holds a query to a source
// over the same tables and joins that keeps every row, and names the
// mismatch otherwise. DISTINCT, HAVING, a derived table and a GROUP BY or
// ORDER BY term that is no column have no shape.
func TestShapeOf(t *testing.T) {
	shape := func(query string) *Shape {
		t.Helper()
		stmt, err := ParseSelect(query)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ShapeOf(stmt)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return s
	}
	q := shape("SELECT o.x AS d, COUNT(*) FROM orders o, Lineitem WHERE o_orderkey = l_orderkey AND " +
		"3 < x AND L_ORDERKEY = o_orderkey AND x <> y + 1 GROUP BY x ORDER BY x DESC LIMIT 4")
	if got := strings.Join(q.Tables, ",") + " " + strings.Join(q.Joins, ","); got != "lineitem,orders l_orderkey=o_orderkey" {
		t.Errorf("tables and joins %q", got)
	}
	if len(q.Filters) != 1 || q.Filters[0].On(&ColRef{Column: "x"}).String() != "(x > 3)" || len(q.Residual) != 1 {
		t.Errorf("filters %v, residual %v", q.Filters, q.Residual)
	}
	if label, ok := q.LabelOf("X"); !ok || label != "d" || !q.Groups("X") || q.Groups("y") {
		t.Errorf("LabelOf(X) = %q %v, Groups(X) %v", label, ok, q.Groups("X"))
	}
	if err := shape("SELECT a FROM orders, lineitem WHERE l_orderkey = o_orderkey").Covers(q); err != nil {
		t.Errorf("the join covers the query: %v", err)
	}
	if err := (*Shape)(nil).Covers(q); err == nil {
		t.Error("no source covers the query")
	}
	for _, src := range []string{
		"SELECT a FROM lineitem",
		"SELECT a FROM orders, lineitem",
		"SELECT a FROM orders, lineitem WHERE l_orderkey = o_orderkey AND a = 1",
		"SELECT a FROM orders, lineitem WHERE l_orderkey = o_orderkey LIMIT 9",
	} {
		if err := shape(src).Covers(q); err == nil || !strings.Contains(err.Error(), "source mismatch") {
			t.Errorf("%s covers the query (%v)", src, err)
		}
	}
	for _, query := range []string{
		"SELECT DISTINCT a FROM t",
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1",
		"SELECT a FROM (SELECT a FROM t) s",
		"SELECT a + 1, COUNT(*) FROM t GROUP BY a + 1",
		"SELECT a FROM t ORDER BY 1",
	} {
		stmt, err := ParseSelect(query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ShapeOf(stmt); err == nil {
			t.Errorf("%s has a shape", query)
		}
	}
}
