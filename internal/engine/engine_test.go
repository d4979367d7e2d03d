package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/value"
)

// mustExec runs a statement and fails the test on error.
func mustExec(t *testing.T, e *Engine, sqlText string) *Result {
	t.Helper()
	res, err := e.Execute(sqlText)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sqlText, err)
	}
	return res
}

// newWorkloadEngine builds a small lineitem/orders/customer database with
// deterministic contents used by most engine tests. Its lineitem holds 3,000
// rows on about 11 data pages: any seek that descends from the root costs more
// than scanning it in the cold disk model.
func newWorkloadEngine(t *testing.T) *Engine {
	return newScaledWorkloadEngine(t, 1)
}

// newScaledWorkloadEngine is newWorkloadEngine with scale times the lineitem
// rows (the same 3,000-row pattern repeated): at scale 16, about 175 data
// pages, selective seeks cost less than a scan.
func newScaledWorkloadEngine(t *testing.T, scale int) *Engine {
	t.Helper()
	e := Default()
	mustExec(t, e, `CREATE TABLE lineitem (
		l_orderkey BIGINT, l_suppkey INT, l_shipdate DATE,
		l_extendedprice DOUBLE, l_returnflag VARCHAR(1),
		PRIMARY KEY (l_shipdate, l_suppkey))`)
	mustExec(t, e, `CREATE TABLE orders (
		o_orderkey BIGINT, o_custkey INT, o_orderdate DATE,
		PRIMARY KEY (o_orderkey))`)
	mustExec(t, e, `CREATE TABLE customer (
		c_custkey INT, c_nationkey INT,
		PRIMARY KEY (c_custkey))`)

	var custRows, orderRows, liRows [][]value.Value
	for ck := 0; ck < 30; ck++ {
		custRows = append(custRows, []value.Value{value.NewInt(int64(ck)), value.NewInt(int64(ck % 5))})
	}
	for ok := 0; ok < 300; ok++ {
		orderRows = append(orderRows, []value.Value{
			value.NewInt(int64(ok)),
			value.NewInt(int64(ok % 30)),
			value.NewDate(value.MustParseDate("1995-01-01").Int() + int64(ok%200)),
		})
	}
	for i := 0; i < 3000*scale; i++ {
		flag := "N"
		if i%4 == 0 {
			flag = "R"
		}
		liRows = append(liRows, []value.Value{
			value.NewInt(int64(i % 300)),
			value.NewInt(int64(i % 20)),
			value.NewDate(value.MustParseDate("1995-01-01").Int() + int64(i%365)),
			value.NewFloat(float64(100 + i%100)),
			value.NewString(flag),
		})
	}
	if err := e.BulkLoad("customer", custRows); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad("orders", orderRows); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad("lineitem", liRows); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCreateInsertSelectRoundTrip(t *testing.T) {
	e := Default()
	mustExec(t, e, "CREATE TABLE t (a INT, b VARCHAR(10), c DATE, d DOUBLE, PRIMARY KEY (a))")
	mustExec(t, e, "INSERT INTO t VALUES (2, 'two', DATE '1999-09-09', 2.5), (1, 'one', '1998-01-01', 1)")
	mustExec(t, e, "INSERT INTO t (a, b) VALUES (3, 'three')")
	res := mustExec(t, e, "SELECT a, b, c, d FROM t ORDER BY a")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 1 || res.Rows[0][1].S != "one" {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	// String literal coerced to date on insert.
	if res.Rows[0][2].String() != "1998-01-01" {
		t.Errorf("date coercion failed: %v", res.Rows[0][2])
	}
	// Int literal coerced to float column.
	if res.Rows[0][3].Kind != value.KindFloat {
		t.Errorf("float coercion failed: %v", res.Rows[0][3])
	}
	// Unspecified columns are NULL.
	if !res.Rows[2][2].IsNull() || !res.Rows[2][3].IsNull() {
		t.Errorf("missing columns should be NULL: %v", res.Rows[2])
	}
	if res.Columns[0] != "a" || res.Columns[3] != "d" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestDDLErrors(t *testing.T) {
	e := Default()
	mustExec(t, e, "CREATE TABLE t (a INT, PRIMARY KEY (a))")
	cases := []string{
		"CREATE TABLE t (a INT)",                        // duplicate
		"CREATE TABLE u (a BLOB)",                       // unknown type
		"CREATE CLUSTERED INDEX cx ON t (a)",            // clustered index via DDL
		"CREATE INDEX ix ON missing (a)",                // missing table
		"CREATE VIEW v AS SELECT a FROM t",              // non-materialized view
		"INSERT INTO missing VALUES (1)",                // missing table
		"INSERT INTO t VALUES (1, 2)",                   // arity
		"INSERT INTO t (nope) VALUES (1)",               // bad column
		"INSERT INTO t VALUES (a)",                      // non-constant
		"DROP TABLE missing",                            // missing table
		"SELECT nope FROM t",                            // unknown column
		"SELECT a FROM t, t",                            // duplicate alias
		"SELECT a FROM t WHERE COUNT(a) > 1",            // aggregate in WHERE
		"SELECT a FROM t GROUP BY a HAVING b > 1",       // HAVING references non-grouped column
		"SELECT a + SUM(a) FROM t",                      // mixing without GROUP BY on a
		"SELECT * FROM t GROUP BY a",                    // star with grouping
		"SELECT a FROM t ORDER BY nope",                 // unresolvable order by
		"SELECT SUM(a, a) FROM t",                       // aggregate arity
		"SELECT MEDIAN(a) FROM t",                       // unsupported aggregate call
		"SELECT a FROM t GROUP BY a + 1",                // non-column group by
		"SELECT a FROM (SELECT a FROM t) d WHERE x = 1", // unknown col in derived
		"UPDATE t SET a = 1",                            // unsupported statement
	}
	for _, q := range cases {
		if _, err := e.Execute(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := Default()
	res := mustExec(t, e, "SELECT 1 + 2 AS three, 'x'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 || res.Rows[0][1].S != "x" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "three" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestQ1StyleAggregation(t *testing.T) {
	e := newScaledWorkloadEngine(t, 16)
	res := mustExec(t, e, `
		SELECT l_shipdate, COUNT(*)
		FROM lineitem
		WHERE l_shipdate > DATE '1995-10-01'
		GROUP BY l_shipdate`)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	total := int64(0)
	for _, r := range res.Rows {
		if r[0].String() <= "1995-10-01" {
			t.Fatalf("group outside range: %v", r[0])
		}
		total += r[1].Int()
	}
	// Verify against a direct count.
	check := mustExec(t, e, "SELECT COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-10-01'")
	if check.Rows[0][0].Int() != total {
		t.Errorf("group total %d != direct count %v", total, check.Rows[0][0])
	}
	// The clustered key starts with l_shipdate, so the planner should pick a
	// clustered seek and a streaming aggregate.
	if !strings.Contains(res.Plan, "ClusteredSeek") {
		t.Errorf("plan should use a clustered seek: %s", res.Plan)
	}
	if !strings.Contains(res.Plan, "StreamAggregate") {
		t.Errorf("plan should use a stream aggregate: %s", res.Plan)
	}
	// On the 11-page lineitem the seek wins too: the bulk-loaded tree's leaf
	// model prices its start at one random read, where a descent would read
	// two and lose to the scan.
	small := mustExec(t, newWorkloadEngine(t), `
		SELECT l_shipdate, COUNT(*)
		FROM lineitem
		WHERE l_shipdate > DATE '1995-10-01'
		GROUP BY l_shipdate`)
	if !strings.Contains(small.Plan, "ClusteredSeek") || !strings.Contains(small.Plan, "StreamAggregate") {
		t.Errorf("small table should be sought into a stream aggregate: %s", small.Plan)
	}
}

func TestQ2StyleEqualityAndHashAggregate(t *testing.T) {
	e := newWorkloadEngine(t)
	res := mustExec(t, e, `
		SELECT l_suppkey, COUNT(*)
		FROM lineitem
		WHERE l_shipdate = DATE '1995-03-12'
		GROUP BY l_suppkey`)
	// Grouping on a non-leading column requires a hash aggregate.
	if !strings.Contains(res.Plan, "HashAggregate") {
		t.Errorf("plan = %s", res.Plan)
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].Int()
	}
	check := mustExec(t, e, "SELECT COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1995-03-12'")
	if check.Rows[0][0].Int() != total {
		t.Errorf("totals differ: %d vs %v", total, check.Rows[0][0])
	}
}

func TestQ7StyleThreeWayJoin(t *testing.T) {
	e := newWorkloadEngine(t)
	res := mustExec(t, e, `
		SELECT c_nationkey, SUM(l_extendedprice)
		FROM lineitem, orders, customer
		WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND l_returnflag = 'R'
		GROUP BY c_nationkey`)
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 nation groups, got %d", len(res.Rows))
	}
	var total float64
	for _, r := range res.Rows {
		total += r[1].Float()
	}
	check := mustExec(t, e, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_returnflag = 'R'")
	if diff := total - check.Rows[0][0].Float(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("join total %f != direct total %v", total, check.Rows[0][0])
	}
}

func TestJoinHintsChangeAlgorithm(t *testing.T) {
	e := newWorkloadEngine(t)
	base := "SELECT o_orderdate, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderdate"
	def := mustExec(t, e, base)
	if !strings.Contains(def.Plan, "HashJoin") {
		t.Errorf("default plan should hash join: %s", def.Plan)
	}
	loop := mustExec(t, e, base+" OPTION(LOOP JOIN)")
	if !strings.Contains(loop.Plan, "IndexNLJoin") {
		t.Errorf("hinted plan should use index nested loops: %s", loop.Plan)
	}
	merge := mustExec(t, e, base+" OPTION(MERGE JOIN)")
	if !strings.Contains(merge.Plan, "MergeJoin") {
		t.Errorf("hinted plan should merge join: %s", merge.Plan)
	}
	// All three produce identical results.
	if len(def.Rows) != len(loop.Rows) || len(def.Rows) != len(merge.Rows) {
		t.Fatalf("row counts differ: %d/%d/%d", len(def.Rows), len(loop.Rows), len(merge.Rows))
	}
	for i := range def.Rows {
		for c := range def.Rows[i] {
			if value.Compare(def.Rows[i][c], loop.Rows[i][c]) != 0 || value.Compare(def.Rows[i][c], merge.Rows[i][c]) != 0 {
				t.Fatalf("row %d differs across join algorithms", i)
			}
		}
	}
	// Aggregation hints.
	ha := mustExec(t, e, "SELECT l_shipdate, COUNT(*) FROM lineitem GROUP BY l_shipdate OPTION(HASH AGG)")
	if !strings.Contains(ha.Plan, "HashAggregate") {
		t.Errorf("HASH AGG hint ignored: %s", ha.Plan)
	}
	sa := mustExec(t, e, "SELECT l_suppkey, COUNT(*) FROM lineitem GROUP BY l_suppkey OPTION(STREAM AGG)")
	if !strings.Contains(sa.Plan, "StreamAggregate") || !strings.Contains(sa.Plan, "Sort") {
		t.Errorf("STREAM AGG hint should sort then stream: %s", sa.Plan)
	}
}

func TestSecondaryIndexIsChosenForSelectivePredicate(t *testing.T) {
	e := newScaledWorkloadEngine(t, 16)
	mustExec(t, e, "CREATE INDEX ix_supp ON lineitem (l_suppkey) INCLUDE (l_extendedprice)")
	res := mustExec(t, e, "SELECT l_suppkey, l_extendedprice FROM lineitem WHERE l_suppkey = 7")
	if !strings.Contains(res.Plan, "IndexSeek") {
		t.Errorf("plan should use the covering secondary index: %s", res.Plan)
	}
	if len(res.Rows) != 16*150 {
		t.Errorf("rows = %d, want %d", len(res.Rows), 16*150)
	}
	// On the 11-page lineitem the same query seeks too: the index, built by
	// a bulk load, predicts the leaf it begins in (its leaf model), so its
	// start costs one random read, not a descent that would lose to the scan.
	small := newWorkloadEngine(t)
	mustExec(t, small, "CREATE INDEX ix_supp ON lineitem (l_suppkey) INCLUDE (l_extendedprice)")
	sres := mustExec(t, small, "SELECT l_suppkey, l_extendedprice FROM lineitem WHERE l_suppkey = 7")
	if !strings.Contains(sres.Plan, "IndexSeek") || len(sres.Rows) != 150 {
		t.Errorf("small table: %d rows (want 150) from %s, want an index seek", len(sres.Rows), sres.Plan)
	}
	// When the query needs a column outside the index and selectivity is low,
	// the planner should fall back to scanning.
	res = mustExec(t, e, "SELECT l_returnflag FROM lineitem WHERE l_suppkey >= 0")
	if strings.Contains(res.Plan, "IndexSeek") {
		t.Errorf("unselective non-covering predicate should scan: %s", res.Plan)
	}
}

func TestBandJoinOverCTableShapedData(t *testing.T) {
	e := Default()
	mustExec(t, e, "CREATE TABLE d1_l_shipdate (f BIGINT, v DATE, c BIGINT, PRIMARY KEY (f))")
	mustExec(t, e, "CREATE TABLE d1_l_suppkey (f BIGINT, v INT, c BIGINT, PRIMARY KEY (f))")
	mustExec(t, e, "CREATE INDEX ix_ship_v ON d1_l_shipdate (v) INCLUDE (f, c)")
	var shipRows, suppRows [][]value.Value
	pos := int64(1)
	day := value.MustParseDate("1995-01-01").Int()
	for i := 0; i < 50; i++ { // 50 runs of 20 rows each
		shipRows = append(shipRows, []value.Value{value.NewInt(pos), value.NewDate(day + int64(i)), value.NewInt(20)})
		for j := 0; j < 10; j++ { // suppkey runs of 2 within each date run
			suppRows = append(suppRows, []value.Value{value.NewInt(pos + int64(j*2)), value.NewInt(int64(j)), value.NewInt(2)})
		}
		pos += 20
	}
	if err := e.BulkLoad("d1_l_shipdate", shipRows); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad("d1_l_suppkey", suppRows); err != nil {
		t.Fatal(err)
	}
	// The paper's rewritten Q3: band join + SUM over run lengths.
	res := mustExec(t, e, `
		SELECT T1.v, SUM(T1.c)
		FROM d1_l_shipdate T0, d1_l_suppkey T1
		WHERE T0.v > DATE '1995-02-09'
		  AND T1.f BETWEEN T0.f AND T0.f + T0.c - 1
		GROUP BY T1.v`)
	if !strings.Contains(res.Plan, "IndexNLJoin") {
		t.Errorf("band join should use index nested loops: %s", res.Plan)
	}
	// 1995-02-09 is day 39 (0-based); days 40..49 qualify = 10 runs.
	// Each run has 10 suppkey groups of size 2: SUM(c) per suppkey value = 10*2 = 20.
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d, want 10", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() != 20 {
			t.Errorf("suppkey %v count = %v, want 20", r[0], r[1])
		}
	}
	// The optimized rewriting with a derived table produces the same answer.
	opt := mustExec(t, e, `
		SELECT T1.v, SUM(T1.c)
		FROM (SELECT MIN(T0.f) AS xMin, MAX(T0.f + T0.c - 1) AS xMax
		      FROM d1_l_shipdate T0 WHERE T0.v > DATE '1995-02-09') T0Agg,
		     d1_l_suppkey T1
		WHERE T1.f BETWEEN T0Agg.xMin AND T0Agg.xMax
		GROUP BY T1.v`)
	if len(opt.Rows) != len(res.Rows) {
		t.Fatalf("optimized rewrite rows = %d, want %d", len(opt.Rows), len(res.Rows))
	}
	for i := range res.Rows {
		if value.Compare(opt.Rows[i][0], res.Rows[i][0]) != 0 || value.Compare(opt.Rows[i][1], res.Rows[i][1]) != 0 {
			t.Errorf("row %d differs between rewrites", i)
		}
	}
}

func TestMaterializedViewCreationAndQuerying(t *testing.T) {
	e := newWorkloadEngine(t)
	mustExec(t, e, `CREATE MATERIALIZED VIEW mv23 AS
		SELECT l_shipdate, l_suppkey, COUNT(*) AS cnt
		FROM lineitem GROUP BY l_shipdate, l_suppkey`)
	def, ok := e.View("MV23")
	if !ok {
		t.Fatal("view definition not recorded")
	}
	if len(def.GroupColumns) != 2 || len(def.AggColumns) != 1 {
		t.Errorf("view def = %+v", def)
	}
	// The view is a queryable clustered table.
	res := mustExec(t, e, "SELECT l_shipdate, SUM(cnt) FROM mv23 WHERE l_shipdate > DATE '1995-10-01' GROUP BY l_shipdate")
	direct := mustExec(t, e, "SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1995-10-01' GROUP BY l_shipdate")
	if len(res.Rows) != len(direct.Rows) {
		t.Fatalf("view rows %d, direct rows %d", len(res.Rows), len(direct.Rows))
	}
	for i := range res.Rows {
		if value.Compare(res.Rows[i][1], direct.Rows[i][1]) != 0 {
			t.Errorf("row %d: view %v, direct %v", i, res.Rows[i], direct.Rows[i])
		}
	}
	// Duplicate view names are rejected.
	if _, err := e.Execute("CREATE MATERIALIZED VIEW mv23 AS SELECT l_suppkey FROM lineitem GROUP BY l_suppkey"); err == nil {
		t.Error("duplicate view should fail")
	}
	// Dropping the backing table removes the view definition.
	mustExec(t, e, "DROP TABLE mv23")
	if _, ok := e.View("mv23"); ok {
		t.Error("view definition should be gone after dropping the table")
	}
}

func TestStatsAndColdRuns(t *testing.T) {
	e := newScaledWorkloadEngine(t, 16)
	// Warm run: everything is cached from loading.
	warm := mustExec(t, e, "SELECT COUNT(*) FROM lineitem")
	if warm.Stats.IO.PageReads != 0 {
		t.Errorf("warm run should hit the buffer pool, got %+v", warm.Stats.IO)
	}
	// Cold run: buffer pool reset forces page reads.
	e.ResetBufferPool()
	cold := mustExec(t, e, "SELECT COUNT(*) FROM lineitem")
	if cold.Stats.IO.PageReads == 0 {
		t.Error("cold run should read pages")
	}
	if cold.Stats.RowsReturned != 1 {
		t.Errorf("RowsReturned = %d", cold.Stats.RowsReturned)
	}
	if cold.Stats.Wall <= 0 {
		t.Error("wall time not measured")
	}
	// A selective clustered seek reads far fewer pages than a full scan.
	e.ResetBufferPool()
	seek := mustExec(t, e, "SELECT COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1995-06-06'")
	if seek.Stats.IO.PageReads*3 >= cold.Stats.IO.PageReads {
		t.Errorf("selective seek read %d pages, full scan %d", seek.Stats.IO.PageReads, cold.Stats.IO.PageReads)
	}
	// On the 11-page lineitem the same statement seeks too, from the leaf
	// the bulk-loaded tree's model predicts: one random read, where the full
	// scan reads one and then the leaf chain, and at most the model's window
	// of sequential leaves.
	small := newWorkloadEngine(t)
	small.ResetBufferPool()
	full := mustExec(t, small, "SELECT COUNT(*) FROM lineitem")
	small.ResetBufferPool()
	sel := mustExec(t, small, "SELECT COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1995-06-06'")
	tbl, err := small.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	model := tbl.Clustered.Tree().Model()
	if model == nil {
		t.Fatal("the bulk-loaded lineitem has no leaf model")
	}
	window := int64(model.Window)
	if io := sel.Stats.IO; !strings.Contains(sel.Plan, "ClusteredSeek") || io.RandReads != 1 || io.SeqReads > window || io.PageReads >= full.Stats.IO.PageReads {
		t.Errorf("small table: %s read %+v, full scan %+v, window %d", sel.Plan, io, full.Stats.IO, window)
	}
	if e.TotalDataPages() == 0 {
		t.Error("TotalDataPages should be positive")
	}
}

func TestDistinctOrderByLimit(t *testing.T) {
	e := newWorkloadEngine(t)
	res := mustExec(t, e, "SELECT DISTINCT l_returnflag FROM lineitem ORDER BY l_returnflag DESC")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "R" || res.Rows[1][0].S != "N" {
		t.Fatalf("distinct rows = %v", res.Rows)
	}
	res = mustExec(t, e, "SELECT l_suppkey, COUNT(*) AS cnt FROM lineitem GROUP BY l_suppkey ORDER BY cnt DESC, 1 LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("limit rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Int() < res.Rows[2][1].Int() {
		t.Error("descending order violated")
	}
	// HAVING filters groups.
	res = mustExec(t, e, "SELECT l_suppkey, COUNT(*) FROM lineitem GROUP BY l_suppkey HAVING COUNT(*) > 100")
	for _, r := range res.Rows {
		if r[1].Int() <= 100 {
			t.Errorf("HAVING leaked group %v", r)
		}
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	e := newWorkloadEngine(t)
	e.ResetBufferPool()
	before := e.Pager().Stats()
	planText, err := e.Explain("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if planText == "" {
		t.Error("empty plan text")
	}
	after := e.Pager().Stats()
	if after.Sub(before).PageReads > 2 {
		t.Errorf("Explain should not scan the table, read %d pages", after.Sub(before).PageReads)
	}
	if _, err := e.Explain("SELECT * FROM missing"); err == nil {
		t.Error("Explain of invalid query should fail")
	}
}

func TestDerivedTableGlobalAggregate(t *testing.T) {
	e := newWorkloadEngine(t)
	res := mustExec(t, e, `
		SELECT d.mx - d.mn
		FROM (SELECT MIN(l_suppkey) AS mn, MAX(l_suppkey) AS mx FROM lineitem) d`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 19 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	e := Default()
	mustExec(t, e, "CREATE TABLE t (a INT, b DATE, PRIMARY KEY (a))")
	err := e.BulkLoad("t", [][]value.Value{{value.NewInt(1)}})
	if err == nil {
		t.Error("wrong arity should fail")
	}
	if err := e.BulkLoad("missing", nil); err == nil {
		t.Error("missing table should fail")
	}
	// Coercion of strings to dates during bulk load, on a copy: the caller's
	// rows are left as they were.
	rows := [][]value.Value{{value.NewInt(1), value.NewString("1997-07-07")}}
	if err := e.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "SELECT b FROM t")
	if res.Rows[0][0].Kind != value.KindDate {
		t.Errorf("bulk load coercion failed: %v", res.Rows[0][0])
	}
	if rows[0][1].Kind != value.KindString {
		t.Errorf("bulk load coerced the caller's row in place: %v", rows[0][1])
	}
}

// TestRefusedBulkLoadLeavesNoTrace: a bulk load whose 900th of 1,000 rows
// cannot fit in a page, or repeats a key of a unique index, is refused before
// any row is stored or any page allocated, on a keyed table and on a keyless
// one, in memory and durably. The oversized row used to leave the keyed
// table's statistics counting the 1,000 rows and 3 pages allocated, and a
// keyless table holding the first 900 rows, after which every later load was
// refused; the duplicate was found only after a keyless table had stored
// every row. Afterwards the table, its statistics and the page count are as
// before, and a load of good rows succeeds.
func TestRefusedBulkLoadLeavesNoTrace(t *testing.T) {
	rows := make([][]value.Value, 1000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewString(fmt.Sprint("s", i))}
	}
	tooLarge, dup := slices.Clone(rows), slices.Clone(rows)
	tooLarge[900] = []value.Value{value.NewInt(900), value.NewString(strings.Repeat("x", 20000))}
	dup[900] = []value.Value{value.NewInt(10), value.NewString("dup")}
	for _, mode := range []string{"memory", "durable"} {
		for _, tc := range []struct {
			key, index string
			rows       [][]value.Value
		}{
			{", PRIMARY KEY (k)", "", tooLarge},
			{"", "", tooLarge},
			{"", "CREATE UNIQUE INDEX t_k ON t (k)", dup},
		} {
			name := fmt.Sprintf("%s, key %q, index %q", mode, tc.key, tc.index)
			e := Default()
			if mode == "durable" {
				var err error
				if e, err = Open(Options{DataDir: t.TempDir()}); err != nil {
					t.Fatal(err)
				}
			}
			mustExec(t, e, "CREATE TABLE t (k INT, s VARCHAR(64)"+tc.key+")")
			if tc.index != "" {
				mustExec(t, e, tc.index)
			}
			// A durable engine's rollback restores the catalog as new objects.
			stats := func() *catalog.TableStats {
				tbl, err := e.Catalog().Table("t")
				if err != nil {
					t.Fatal(err)
				}
				return tbl.Stats
			}
			pages := e.TotalDataPages()
			if err := e.BulkLoad("t", tc.rows); err == nil {
				t.Fatalf("%s: the load was accepted", name)
			}
			if n := mustExec(t, e, "SELECT COUNT(*) FROM t").Rows[0][0].Int(); n != 0 {
				t.Errorf("%s: the refused load stored %d rows", name, n)
			}
			if s := stats(); s.RowCount != 0 || s.DataBytes != 0 {
				t.Errorf("%s: the refused load left statistics of %d rows, %d bytes", name, s.RowCount, s.DataBytes)
			}
			if n := e.TotalDataPages(); n != pages {
				t.Errorf("%s: the refused load allocated pages: %d -> %d", name, pages, n)
			}
			if err := e.BulkLoad("t", rows[:10]); err != nil {
				t.Fatalf("%s: a load of good rows after the refused one: %v", name, err)
			}
			if n := mustExec(t, e, "SELECT COUNT(*) FROM t").Rows[0][0].Int(); n != 10 || stats().RowCount != 10 {
				t.Errorf("%s: after the retry, COUNT(*) = %d and statistics count %d; want 10 and 10", name, n, stats().RowCount)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBulkLoadRefusesNonEmptyTable: a second bulk load into a loaded table
// used to orphan the first load's pages — COUNT(*) saw only the second, the
// statistics counted both. It is refused and the table is left untouched.
func TestBulkLoadRefusesNonEmptyTable(t *testing.T) {
	e := Default()
	mustExec(t, e, "CREATE TABLE t (k BIGINT, v BIGINT, PRIMARY KEY (k))")
	batch := func(from int) [][]value.Value {
		var rows [][]value.Value
		for i := from; i < from+1000; i++ {
			rows = append(rows, []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i))})
		}
		return rows
	}
	if err := e.BulkLoad("t", batch(0)); err != nil {
		t.Fatal(err)
	}
	pages := e.TotalDataPages()
	if err := e.BulkLoad("t", batch(1000)); err == nil {
		t.Fatal("a bulk load into a loaded table was accepted")
	}
	if res := mustExec(t, e, "SELECT COUNT(*), MIN(k), MAX(k) FROM t"); res.Rows[0][0].Int() != 1000 ||
		res.Rows[0][1].Int() != 0 || res.Rows[0][2].Int() != 999 {
		t.Errorf("after the refused load: COUNT, MIN, MAX = %v, want 1000, 0, 999", res.Rows[0])
	}
	if n := e.TotalDataPages(); n != pages {
		t.Errorf("the refused load allocated pages: %d -> %d", pages, n)
	}
	tbl, err := e.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Stats.RowCount != 1000 {
		t.Errorf("statistics count %d rows, want 1000", tbl.Stats.RowCount)
	}
}

func TestInsertVisibleToSubsequentQueries(t *testing.T) {
	e := newWorkloadEngine(t)
	before := mustExec(t, e, "SELECT COUNT(*) FROM lineitem").Rows[0][0].Int()
	mustExec(t, e, "INSERT INTO lineitem VALUES (1, 2, DATE '1996-06-06', 10.0, 'A')")
	after := mustExec(t, e, "SELECT COUNT(*) FROM lineitem").Rows[0][0].Int()
	if after != before+1 {
		t.Errorf("count %d -> %d", before, after)
	}
	res := mustExec(t, e, "SELECT l_returnflag FROM lineitem WHERE l_returnflag = 'A'")
	if len(res.Rows) != 1 {
		t.Errorf("inserted row not found: %v", res.Rows)
	}
}

func TestQualifiedColumnsAndSelfJoinAliases(t *testing.T) {
	e := newWorkloadEngine(t)
	res := mustExec(t, e, `
		SELECT a.o_orderkey, b.o_orderkey
		FROM orders a, orders b
		WHERE a.o_orderkey = 5 AND b.o_orderkey = a.o_orderkey + 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int() != 5 || res.Rows[0][1].Int() != 6 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func fmtRows(rows [][]value.Value) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(fmt.Sprint(r))
		sb.WriteString("\n")
	}
	return sb.String()
}
