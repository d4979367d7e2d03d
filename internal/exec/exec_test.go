package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/expr"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// buildTestDB creates a small lineitem/orders pair used across executor tests.
func buildTestDB(t testing.TB) (*catalog.Catalog, *catalog.Table, *catalog.Table) {
	t.Helper()
	c := catalog.New(storage.NewPager(0))
	lineitem, err := c.CreateTable("lineitem", []catalog.Column{
		{Name: "l_orderkey", Kind: value.KindInt},
		{Name: "l_suppkey", Kind: value.KindInt},
		{Name: "l_shipdate", Kind: value.KindDate},
		{Name: "l_extendedprice", Kind: value.KindFloat},
		{Name: "l_returnflag", Kind: value.KindString},
	}, []string{"l_shipdate", "l_suppkey"})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := c.CreateTable("orders", []catalog.Column{
		{Name: "o_orderkey", Kind: value.KindInt},
		{Name: "o_custkey", Kind: value.KindInt},
		{Name: "o_orderdate", Kind: value.KindDate},
	}, []string{"o_orderkey"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var orderRows [][]value.Value
	for ok := 0; ok < 200; ok++ {
		orderRows = append(orderRows, []value.Value{
			value.NewInt(int64(ok)),
			value.NewInt(int64(rng.Intn(20))),
			value.NewDate(value.MustParseDate("1995-01-01").Int() + int64(rng.Intn(365))),
		})
	}
	if err := orders.BulkLoad(orderRows); err != nil {
		t.Fatal(err)
	}
	var liRows [][]value.Value
	for i := 0; i < 1000; i++ {
		flag := "N"
		if i%5 == 0 {
			flag = "R"
		}
		liRows = append(liRows, []value.Value{
			value.NewInt(int64(i % 200)), // orderkey joins orders
			value.NewInt(int64(i % 25)),
			value.NewDate(value.MustParseDate("1995-01-01").Int() + int64(i%300)),
			value.NewFloat(float64(100 + i%50)),
			value.NewString(flag),
		})
	}
	if err := lineitem.BulkLoad(liRows); err != nil {
		t.Fatal(err)
	}
	return c, lineitem, orders
}

func drain(t testing.TB, op Operator) []Row {
	t.Helper()
	rows, err := Drain(nil, op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestValuesScan(t *testing.T) {
	vs := NewValuesScan([]ColumnInfo{{Name: "x", Kind: value.KindInt}}, []Row{
		{value.NewInt(1)}, {value.NewInt(2)},
	})
	rows := drain(t, vs)
	if len(rows) != 2 || rows[1][0].Int() != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if len(vs.Schema()) != 1 || vs.Schema()[0].Name != "x" {
		t.Error("schema wrong")
	}
}

func TestSeqScanAndProjectionPushdown(t *testing.T) {
	_, lineitem, _ := buildTestDB(t)
	full := drain(t, NewSeqScan(lineitem, nil))
	if len(full) != 1000 {
		t.Fatalf("full scan rows = %d", len(full))
	}
	if len(full[0]) != 5 {
		t.Fatalf("full scan width = %d", len(full[0]))
	}
	proj := NewSeqScan(lineitem, []int{2, 1})
	rows := drain(t, proj)
	if len(rows) != 1000 || len(rows[0]) != 2 {
		t.Fatalf("projected scan shape wrong")
	}
	sch := proj.Schema()
	if sch[0].Name != "l_shipdate" || sch[1].Name != "l_suppkey" {
		t.Errorf("schema = %v", sch)
	}
	// Clustered scan order: shipdate ascending.
	for i := 1; i < len(rows); i++ {
		if value.Compare(rows[i-1][0], rows[i][0]) > 0 {
			t.Fatal("clustered scan not ordered by shipdate")
		}
	}
	// Next before Open errors.
	raw := NewSeqScan(lineitem, nil)
	if _, _, err := raw.Next(); err == nil {
		t.Error("Next before Open should error")
	}
}

func TestClusteredSeek(t *testing.T) {
	_, lineitem, _ := buildTestDB(t)
	lo := []value.Value{value.MustParseDate("1995-03-01")}
	hi := []value.Value{value.MustParseDate("1995-03-31")}
	seek, err := NewClusteredSeek(lineitem, lo, hi, true, true, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, seek)
	if len(rows) == 0 {
		t.Fatal("expected rows in March 1995")
	}
	for _, r := range rows {
		d := r[0].String()
		if d < "1995-03-01" || d > "1995-03-31" {
			t.Fatalf("row outside range: %s", d)
		}
	}
	// Compare against a filtered full scan.
	filtered := drain(t, NewFilter(NewSeqScan(lineitem, []int{2, 1}),
		&expr.Between{
			E:  expr.NewColumn(0, "l_shipdate"),
			Lo: expr.NewConst(value.MustParseDate("1995-03-01")),
			Hi: expr.NewConst(value.MustParseDate("1995-03-31")),
		}))
	if len(filtered) != len(rows) {
		t.Errorf("seek found %d rows, filter found %d", len(rows), len(filtered))
	}
	// Heap table cannot be cluster-seeked.
	c := catalog.New(storage.NewPager(0))
	heap, _ := c.CreateTable("h", []catalog.Column{{Name: "a", Kind: value.KindInt}}, nil)
	if _, err := NewClusteredSeek(heap, nil, nil, true, true, nil); err == nil {
		t.Error("clustered seek on heap should fail")
	}
	if _, _, err := (&TableScan{}).Next(); err == nil {
		t.Error("Next before Open should error")
	}
}

func TestIndexSeekCoveringAndLookup(t *testing.T) {
	c, lineitem, _ := buildTestDB(t)
	idx, err := c.CreateIndex("ix_supp", "lineitem", []string{"l_suppkey"}, []string{"l_extendedprice"}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Covered: suppkey, price, shipdate (clustered key).
	covered, err := NewIndexSeek(idx, []value.Value{value.NewInt(7)}, []value.Value{value.NewInt(7)}, true, true, []int{1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !covered.Covered() {
		t.Error("seek should be covered")
	}
	rows := drain(t, covered)
	if len(rows) != 40 { // 1000 rows, suppkey = i%25 == 7
		t.Fatalf("covered seek rows = %d, want 40", len(rows))
	}
	for _, r := range rows {
		if r[0].Int() != 7 {
			t.Fatal("wrong suppkey from covered seek")
		}
	}
	// Non-covered: needs l_returnflag, so each entry resolves to the base row.
	lookup, err := NewIndexSeek(idx, []value.Value{value.NewInt(7)}, []value.Value{value.NewInt(7)}, true, true, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if lookup.Covered() {
		t.Error("seek should not be covered")
	}
	rows = drain(t, lookup)
	if len(rows) != 40 {
		t.Fatalf("lookup seek rows = %d, want 40", len(rows))
	}
	for _, r := range rows {
		if r[0].Int() != 7 {
			t.Fatal("wrong suppkey from lookup seek")
		}
		if s := r[1].S; s != "N" && s != "R" {
			t.Fatalf("bad returnflag %q", s)
		}
	}
	if _, _, err := (&IndexSeek{}).Next(); err == nil {
		t.Error("Next before Open should error")
	}
	_ = lineitem
}

func TestFilterProjectLimit(t *testing.T) {
	_, lineitem, _ := buildTestDB(t)
	// price * 2 for R-flagged rows, limit 10 offset 5.
	scan := NewSeqScan(lineitem, []int{3, 4})
	filter := NewFilter(scan, expr.Eq(expr.NewColumn(1, "l_returnflag"), expr.NewConst(value.NewString("R"))))
	proj := NewProject(filter, []expr.Expr{
		expr.NewBinary(expr.OpMul, expr.NewColumn(0, "l_extendedprice"), expr.NewConst(value.NewInt(2))),
		expr.NewColumn(1, "l_returnflag"),
	}, []string{"double_price", "flag"})
	lim := NewLimit(proj, 10, 5)
	rows := drain(t, lim)
	if len(rows) != 10 {
		t.Fatalf("limit returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r[1].S != "R" {
			t.Error("filter leaked a non-R row")
		}
		if r[0].Float() < 200 {
			t.Error("projection arithmetic wrong")
		}
	}
	if lim.Schema()[0].Name != "double_price" {
		t.Errorf("projection schema = %v", lim.Schema())
	}
	// Limit of -1 means unlimited.
	all := drain(t, NewLimit(NewSeqScan(lineitem, nil), -1, 0))
	if len(all) != 1000 {
		t.Errorf("unlimited limit returned %d", len(all))
	}
}

func TestSort(t *testing.T) {
	_, lineitem, _ := buildTestDB(t)
	s := NewSort(NewSeqScan(lineitem, []int{1, 3}), []SortKey{{Col: 0, Desc: false}, {Col: 1, Desc: true}})
	rows := drain(t, s)
	if len(rows) != 1000 {
		t.Fatalf("sort returned %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if value.Compare(a[0], b[0]) > 0 {
			t.Fatal("primary sort key violated")
		}
		if value.Compare(a[0], b[0]) == 0 && value.Compare(a[1], b[1]) < 0 {
			t.Fatal("descending secondary key violated")
		}
	}
}

func TestHashAndStreamAggregatesAgree(t *testing.T) {
	_, lineitem, _ := buildTestDB(t)
	aggs := []AggSpec{
		{Kind: AggCountStar, Name: "cnt"},
		{Kind: AggSum, Arg: expr.NewColumn(1, "l_extendedprice"), Name: "total"},
		{Kind: AggMax, Arg: expr.NewColumn(1, "l_extendedprice"), Name: "maxp"},
		{Kind: AggMin, Arg: expr.NewColumn(1, "l_extendedprice"), Name: "minp"},
		{Kind: AggAvg, Arg: expr.NewColumn(1, "l_extendedprice"), Name: "avgp"},
	}
	// Group by suppkey: hash aggregate over a scan projecting (suppkey, price).
	hash := NewHashAggregate(NewSeqScan(lineitem, []int{1, 3}), []int{0}, aggs)
	hashRows := drain(t, hash)
	if len(hashRows) != 25 {
		t.Fatalf("hash agg groups = %d, want 25", len(hashRows))
	}
	// Stream aggregate requires sorted input.
	sorted := NewSort(NewSeqScan(lineitem, []int{1, 3}), []SortKey{{Col: 0}})
	stream := NewStreamAggregate(sorted, []int{0}, aggs)
	streamRows := drain(t, stream)
	if len(streamRows) != len(hashRows) {
		t.Fatalf("stream agg groups = %d, hash = %d", len(streamRows), len(hashRows))
	}
	sort.Slice(streamRows, func(i, j int) bool { return streamRows[i][0].Int() < streamRows[j][0].Int() })
	sort.Slice(hashRows, func(i, j int) bool { return hashRows[i][0].Int() < hashRows[j][0].Int() })
	for i := range hashRows {
		for col := range hashRows[i] {
			if value.Compare(hashRows[i][col], streamRows[i][col]) != 0 {
				t.Fatalf("group %d col %d: hash=%v stream=%v", i, col, hashRows[i][col], streamRows[i][col])
			}
		}
	}
	// Sanity check: each group has 40 rows.
	for _, r := range hashRows {
		if r[1].Int() != 40 {
			t.Errorf("group %v count = %v", r[0], r[1])
		}
		if r[5].IsNull() {
			t.Error("avg should not be NULL")
		}
	}
	schema := hash.Schema()
	if schema[0].Name != "l_suppkey" || schema[1].Name != "cnt" {
		t.Errorf("agg schema = %v", schema)
	}
}

func TestGlobalAggregatesOnEmptyInput(t *testing.T) {
	empty := NewValuesScan([]ColumnInfo{{Name: "x", Kind: value.KindInt}}, nil)
	aggs := []AggSpec{
		{Kind: AggCountStar, Name: "cnt"},
		{Kind: AggSum, Arg: expr.NewColumn(0, "x"), Name: "s"},
		{Kind: AggMax, Arg: expr.NewColumn(0, "x"), Name: "m"},
	}
	rows := drain(t, NewHashAggregate(empty, nil, aggs))
	if len(rows) != 1 {
		t.Fatalf("global agg over empty input should yield one row, got %d", len(rows))
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() || !rows[0][2].IsNull() {
		t.Errorf("empty-input aggregates = %v", rows[0])
	}
	empty2 := NewValuesScan([]ColumnInfo{{Name: "x", Kind: value.KindInt}}, nil)
	rows = drain(t, NewStreamAggregate(empty2, nil, aggs))
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("stream global agg over empty input = %v", rows)
	}
	// Grouped aggregate over empty input yields no rows.
	empty3 := NewValuesScan([]ColumnInfo{{Name: "x", Kind: value.KindInt}}, nil)
	rows = drain(t, NewHashAggregate(empty3, []int{0}, aggs))
	if len(rows) != 0 {
		t.Errorf("grouped agg over empty input = %v", rows)
	}
}

func TestAggregateNullHandling(t *testing.T) {
	vs := NewValuesScan([]ColumnInfo{{Name: "g", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}}, []Row{
		{value.NewInt(1), value.NewInt(10)},
		{value.NewInt(1), value.Null()},
		{value.NewInt(1), value.NewInt(20)},
	})
	aggs := []AggSpec{
		{Kind: AggCountStar, Name: "cstar"},
		{Kind: AggCount, Arg: expr.NewColumn(1, "v"), Name: "cv"},
		{Kind: AggSum, Arg: expr.NewColumn(1, "v"), Name: "s"},
		{Kind: AggAvg, Arg: expr.NewColumn(1, "v"), Name: "a"},
	}
	rows := drain(t, NewHashAggregate(vs, []int{0}, aggs))
	if len(rows) != 1 {
		t.Fatal("expected one group")
	}
	r := rows[0]
	if r[1].Int() != 3 {
		t.Errorf("COUNT(*) = %v", r[1])
	}
	if r[2].Int() != 2 {
		t.Errorf("COUNT(v) = %v", r[2])
	}
	if r[3].Int() != 30 {
		t.Errorf("SUM(v) = %v", r[3])
	}
	if r[4].Float() != 15 {
		t.Errorf("AVG(v) = %v", r[4])
	}
}

func TestNestedLoopJoin(t *testing.T) {
	_, lineitem, orders := buildTestDB(t)
	// Join on orderkey with a tiny outer: orders with o_orderkey < 3.
	outer := NewFilter(NewSeqScan(orders, []int{0, 2}),
		expr.NewBinary(expr.OpLt, expr.NewColumn(0, "o_orderkey"), expr.NewConst(value.NewInt(3))))
	inner := NewSeqScan(lineitem, []int{0, 1})
	pred := expr.Eq(expr.NewColumn(0, "o_orderkey"), expr.NewColumn(2, "l_orderkey"))
	join := NewNestedLoopJoin(outer, inner, pred)
	rows := drain(t, join)
	if len(rows) != 15 { // 3 orders x 5 lineitems each (1000/200)
		t.Fatalf("NLJ rows = %d, want 15", len(rows))
	}
	for _, r := range rows {
		if value.Compare(r[0], r[2]) != 0 {
			t.Fatal("join predicate violated")
		}
	}
	if len(join.Schema()) != 4 {
		t.Errorf("join schema width = %d", len(join.Schema()))
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	_, lineitem, orders := buildTestDB(t)
	build := func() (Operator, Operator) {
		return NewSeqScan(orders, []int{0, 1}), NewSeqScan(lineitem, []int{0, 3})
	}
	l1, r1 := build()
	hj, err := NewHashJoin(l1, r1, []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hjRows := drain(t, hj)
	l2, r2 := build()
	nlj := NewNestedLoopJoin(l2, r2, expr.Eq(expr.NewColumn(0, "o_orderkey"), expr.NewColumn(2, "l_orderkey")))
	nljRows := drain(t, nlj)
	if len(hjRows) != len(nljRows) {
		t.Fatalf("hash join %d rows, NLJ %d rows", len(hjRows), len(nljRows))
	}
	if len(hjRows) != 1000 {
		t.Fatalf("expected 1000 join rows, got %d", len(hjRows))
	}
	// Residual predicate applies on top of the equi-join.
	l3, r3 := build()
	hj2, _ := NewHashJoin(l3, r3, []int{0}, []int{0},
		expr.NewBinary(expr.OpGt, expr.NewColumn(3, "l_extendedprice"), expr.NewConst(value.NewFloat(140))))
	filtered := drain(t, hj2)
	if len(filtered) == 0 || len(filtered) >= 1000 {
		t.Errorf("residual-filtered join rows = %d", len(filtered))
	}
	// Invalid key lists.
	if _, err := NewHashJoin(l1, r1, nil, nil, nil); err == nil {
		t.Error("hash join without keys should fail")
	}
	if _, err := NewMergeJoin(l1, r1, []int{0}, nil, nil); err == nil {
		t.Error("merge join with mismatched keys should fail")
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	_, lineitem, orders := buildTestDB(t)
	// Sort both sides on the join key.
	newSortedPair := func() (Operator, Operator) {
		left := NewSort(NewSeqScan(orders, []int{0, 1}), []SortKey{{Col: 0}})
		right := NewSort(NewSeqScan(lineitem, []int{0, 3}), []SortKey{{Col: 0}})
		return left, right
	}
	l1, r1 := newSortedPair()
	mj, err := NewMergeJoin(l1, r1, []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mjRows := drain(t, mj)
	l2, r2 := newSortedPair()
	hj, _ := NewHashJoin(l2, r2, []int{0}, []int{0}, nil)
	hjRows := drain(t, hj)
	if len(mjRows) != len(hjRows) {
		t.Fatalf("merge join %d rows, hash join %d rows", len(mjRows), len(hjRows))
	}
	// Compare multisets via sorted string keys.
	toKeys := func(rows []Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	a, b := toKeys(mjRows), toKeys(hjRows)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row multiset mismatch at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestMergeJoinManyToMany(t *testing.T) {
	cols := []ColumnInfo{{Name: "k", Kind: value.KindInt}, {Name: "tag", Kind: value.KindString}}
	left := NewValuesScan(cols, []Row{
		{value.NewInt(1), value.NewString("l1")},
		{value.NewInt(2), value.NewString("l2a")},
		{value.NewInt(2), value.NewString("l2b")},
		{value.NewInt(4), value.NewString("l4")},
	})
	right := NewValuesScan(cols, []Row{
		{value.NewInt(0), value.NewString("r0")},
		{value.NewInt(2), value.NewString("r2a")},
		{value.NewInt(2), value.NewString("r2b")},
		{value.NewInt(2), value.NewString("r2c")},
		{value.NewInt(3), value.NewString("r3")},
	})
	mj, err := NewMergeJoin(left, right, []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, mj)
	if len(rows) != 6 { // 2 left x 3 right for key 2
		t.Fatalf("many-to-many merge join rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r[0].Int() != 2 || r[2].Int() != 2 {
			t.Fatalf("unexpected joined row %v", r)
		}
	}
}

func TestIndexNestedLoopBandJoin(t *testing.T) {
	// Build two "c-table"-shaped relations and band-join them the way the
	// paper's rewritten Q3 does: T1.f BETWEEN T0.f AND T0.f + T0.c - 1.
	c := catalog.New(storage.NewPager(0))
	t0, _ := c.CreateTable("t0", []catalog.Column{
		{Name: "f", Kind: value.KindInt}, {Name: "v", Kind: value.KindDate}, {Name: "c", Kind: value.KindInt},
	}, []string{"f"})
	t1, _ := c.CreateTable("t1", []catalog.Column{
		{Name: "f", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}, {Name: "c", Kind: value.KindInt},
	}, []string{"f"})
	// t0: runs of 10 positions per value; t1: runs of 2 positions.
	var t0Rows, t1Rows [][]value.Value
	for i := 0; i < 10; i++ {
		t0Rows = append(t0Rows, []value.Value{
			value.NewInt(int64(i*10 + 1)), value.NewDate(int64(9000 + i)), value.NewInt(10),
		})
	}
	for i := 0; i < 50; i++ {
		t1Rows = append(t1Rows, []value.Value{
			value.NewInt(int64(i*2 + 1)), value.NewInt(int64(i % 7)), value.NewInt(2),
		})
	}
	if err := t0.BulkLoad(t0Rows); err != nil {
		t.Fatal(err)
	}
	if err := t1.BulkLoad(t1Rows); err != nil {
		t.Fatal(err)
	}
	// Outer: t0 rows with v >= 9005 (5 runs, covering positions 51..100).
	outer := NewFilter(NewSeqScan(t0, nil),
		expr.NewBinary(expr.OpGe, expr.NewColumn(1, "v"), expr.NewConst(value.NewDate(9005))))
	// Inner: t1 seek f BETWEEN outer.f AND outer.f+outer.c-1.
	inner := InnerSeekSpec{
		Table:   t1,
		LoExprs: []expr.Expr{expr.NewColumn(0, "f")},
		HiExprs: []expr.Expr{expr.NewBinary(expr.OpSub,
			expr.NewBinary(expr.OpAdd, expr.NewColumn(0, "f"), expr.NewColumn(2, "c")),
			expr.NewConst(value.NewInt(1)))},
		LoIncl: true, HiIncl: true,
	}
	join, err := NewIndexNestedLoopJoin(outer, inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, join)
	// Each of the 5 outer runs spans 10 positions = 5 t1 runs; 5*5 = 25 matches.
	if len(rows) != 25 {
		t.Fatalf("band join rows = %d, want 25", len(rows))
	}
	for _, r := range rows {
		outerF, outerC := r[0].Int(), r[2].Int()
		innerF := r[3].Int()
		if innerF < outerF || innerF > outerF+outerC-1 {
			t.Fatalf("band join produced out-of-range match: %v", r)
		}
	}
	// Residual predicate filters inner values.
	join2, _ := NewIndexNestedLoopJoin(
		NewFilter(NewSeqScan(t0, nil),
			expr.NewBinary(expr.OpGe, expr.NewColumn(1, "v"), expr.NewConst(value.NewDate(9005)))),
		inner,
		expr.Eq(expr.NewColumn(4, "v"), expr.NewConst(value.NewInt(3))))
	filtered := drain(t, join2)
	if len(filtered) == 0 || len(filtered) >= 25 {
		t.Errorf("residual band join rows = %d", len(filtered))
	}
	// Error cases.
	if _, err := NewIndexNestedLoopJoin(outer, InnerSeekSpec{}, nil); err == nil {
		t.Error("inner seek without table should fail")
	}
	heapT, _ := c.CreateTable("heap", []catalog.Column{{Name: "a", Kind: value.KindInt}}, nil)
	if _, err := NewIndexNestedLoopJoin(outer, InnerSeekSpec{Table: heapT}, nil); err == nil {
		t.Error("inner seek on unindexed heap should fail")
	}
}

func TestIndexNestedLoopJoinOnSecondaryIndex(t *testing.T) {
	c, lineitem, orders := buildTestDB(t)
	idx, err := c.CreateIndex("ix_lo", "lineitem", []string{"l_orderkey"}, []string{"l_extendedprice"}, false)
	if err != nil {
		t.Fatal(err)
	}
	outer := NewFilter(NewSeqScan(orders, []int{0, 2}),
		expr.NewBinary(expr.OpLt, expr.NewColumn(0, "o_orderkey"), expr.NewConst(value.NewInt(10))))
	inner := InnerSeekSpec{
		Table:   lineitem,
		Index:   idx,
		LoExprs: []expr.Expr{expr.NewColumn(0, "o_orderkey")},
		HiExprs: []expr.Expr{expr.NewColumn(0, "o_orderkey")},
		LoIncl:  true, HiIncl: true,
		Cols: []int{0, 3},
	}
	join, err := NewIndexNestedLoopJoin(outer, inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, join)
	if len(rows) != 50 { // 10 orders x 5 lineitems
		t.Fatalf("INL join rows = %d, want 50", len(rows))
	}
	for _, r := range rows {
		if value.Compare(r[0], r[2]) != 0 {
			t.Fatal("INL join key mismatch")
		}
	}
}

func TestDrainPropagatesOpenErrors(t *testing.T) {
	// A bounded scan of a heap has no clustered key to seek: Open must fail.
	c := catalog.New(storage.NewPager(0))
	heap, _ := c.CreateTable("h", []catalog.Column{{Name: "a", Kind: value.KindInt}}, nil)
	bad := &TableScan{Table: heap, Lo: []value.Value{value.NewInt(1)}}
	if _, err := Drain(nil, bad); err == nil {
		t.Error("Drain should propagate Open errors")
	}
}
