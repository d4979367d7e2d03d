package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/expr"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

func intRow(vals ...int64) Row {
	out := make(Row, len(vals))
	for i, v := range vals {
		out[i] = value.NewInt(v)
	}
	return out
}

func TestBatchBasics(t *testing.T) {
	b := NewBatch(2, 4)
	if b.NumRows() != 0 {
		t.Fatalf("empty batch has %d rows", b.NumRows())
	}
	b.AppendRow(intRow(1, 10))
	b.AppendRow(intRow(2, 20))
	b.AppendRow(intRow(3, 30))
	if b.NumRows() != 3 {
		t.Fatalf("batch has %d rows, want 3", b.NumRows())
	}
	if got := b.Row(1); got[0].Int() != 2 || got[1].Int() != 20 {
		t.Fatalf("Row(1) = %v", got)
	}
	// Selection restricts the live rows without moving data.
	b.Sel = []int{0, 2}
	if b.NumRows() != 2 {
		t.Fatalf("selected batch has %d rows, want 2", b.NumRows())
	}
	if got := b.Row(1); got[0].Int() != 3 {
		t.Fatalf("selected Row(1) = %v, want physical row 2", got)
	}
	rows := b.AppendRows(nil)
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][0].Int() != 3 {
		t.Fatalf("AppendRows = %v", rows)
	}
}

func TestZeroColumnBatchKeepsRowCount(t *testing.T) {
	b := NewBatch(0, 4)
	b.AppendRow(Row{})
	b.AppendRow(Row{})
	if b.NumRows() != 2 {
		t.Fatalf("zero-column batch has %d rows, want 2", b.NumRows())
	}
}

// bothPullsDB builds facts(k, g, x) with n rows clustered on k (g = k%7,
// x = k%100, integers so sums are exact under either fold order), a covering
// and a non-covering secondary index on g, and dims(d, w) with 7 rows.
func bothPullsDB(t *testing.T, n int) (facts, dims *catalog.Table, covering, lookup *catalog.Index) {
	t.Helper()
	c := catalog.New(storage.NewPager(0))
	facts, err := c.CreateTable("facts", []catalog.Column{
		{Name: "k", Kind: value.KindInt}, {Name: "g", Kind: value.KindInt}, {Name: "x", Kind: value.KindInt},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = intRow(int64(i), int64(i%7), int64(i%100))
	}
	if err := facts.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if covering, err = c.CreateIndex("facts_g_x", "facts", []string{"g"}, []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	if lookup, err = c.CreateIndex("facts_g", "facts", []string{"g"}, nil, false); err != nil {
		t.Fatal(err)
	}
	dims, err = c.CreateTable("dims", []catalog.Column{
		{Name: "d", Kind: value.KindInt}, {Name: "w", Kind: value.KindInt},
	}, []string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	var dimRows [][]value.Value
	for i := 0; i < 7; i++ {
		dimRows = append(dimRows, intRow(int64(i), int64(10*i)))
	}
	if err := dims.BulkLoad(dimRows); err != nil {
		t.Fatal(err)
	}
	return facts, dims, covering, lookup
}

// TestEveryOperatorBothPulls holds the operator contract: every operator the
// package constructs returns the same rows, in the same order, from Next and
// from NextBatch — the row joins' NextBatch and the batch-only operators'
// Next included — over inputs that end one row and one batch past a batch
// boundary, and again when the same instance is re-opened.
func TestEveryOperatorBothPulls(t *testing.T) {
	col := func(i int) expr.Expr { return expr.NewColumn(i, "") }
	lit := func(v int64) expr.Expr { return expr.NewConst(value.NewInt(v)) }
	must := func(op Operator, err error) Operator {
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	aggs := []AggSpec{{Kind: AggCountStar, Name: "n"}, {Kind: AggSum, Arg: col(2), Name: "sx"}}
	for _, n := range []int{DefaultBatchSize + 1, 2*DefaultBatchSize + 1} {
		facts, dims, covering, lookup := bothPullsDB(t, n)
		scan := func() Operator { return NewSeqScan(facts, nil) }
		dimScan := func() Operator { return NewSeqScan(dims, nil) }
		morsels := func() Morseler {
			return &valuesMorseler{ValuesScan: NewValuesScan(scan().Schema(), drain(t, scan())), chunk: 300}
		}
		halve := func(src Operator) Operator { return NewFilter(src, expr.NewBinary(expr.OpLt, col(2), lit(50))) }
		parallelSort := func(src Morseler, pipe PipelineFunc, keys []SortKey, workers int) (Operator, bool) {
			return NewSort(src, keys).ParallelForm(src, pipe, workers)
		}
		parallel := func(op Operator, ok bool) Operator {
			if !ok {
				t.Fatal("test source did not split into morsels")
			}
			return op
		}
		gLo := []value.Value{value.NewInt(0)}
		ops := map[string]Operator{
			"ValuesScan":       NewValuesScan(scan().Schema(), drain(t, scan())),
			"SeqScan":          scan(),
			"ClusteredSeek":    must(NewClusteredSeek(facts, []value.Value{value.NewInt(3)}, nil, false, false, []int{0, 2})),
			"IndexSeek":        must(NewIndexSeek(covering, gLo, []value.Value{value.NewInt(5)}, true, true, []int{1, 2})),
			"IndexSeek+lookup": must(NewIndexSeek(lookup, gLo, []value.Value{value.NewInt(5)}, true, true, nil)),
			"Filter":           halve(scan()),
			"Project":          NewProject(scan(), []expr.Expr{col(1), expr.NewBinary(expr.OpAdd, col(0), col(2))}, []string{"g", "kx"}),
			"Limit":            NewLimit(scan(), int64(n-10), 5),
			"Sort":             NewSort(scan(), []SortKey{{Col: 2, Desc: true}, {Col: 0}}),
			"HashAggregate":    NewHashAggregate(scan(), []int{2}, aggs),
			"StreamAggregate":  NewStreamAggregate(scan(), []int{0}, aggs),
			"NestedLoopJoin":   NewNestedLoopJoin(scan(), dimScan(), expr.NewBinary(expr.OpGe, col(1), col(3))),
			"HashJoin":         must(NewHashJoin(scan(), dimScan(), []int{1}, []int{0}, nil)),
			"MergeJoin":        must(NewMergeJoin(NewSort(scan(), []SortKey{{Col: 1}}), dimScan(), []int{1}, []int{0}, nil)),
			"IndexNestedLoopJoin": must(NewIndexNestedLoopJoin(scan(), InnerSeekSpec{
				Table: dims, LoExprs: []expr.Expr{col(1)}, HiExprs: []expr.Expr{col(1)}, LoIncl: true, HiIncl: true, Cols: []int{0, 1},
			}, nil)),
			"VectorizedHashJoin":      must(NewVectorizedHashJoin(scan(), dimScan(), []int{1}, []int{0}, nil)),
			"ParallelMerge":           parallel(NewParallelMerge(morsels(), halve, 3)),
			"ParallelHashAggregate":   parallel(NewParallelHashAggregate(morsels(), halve, []int{2}, aggs, 3)),
			"ParallelStreamAggregate": parallel(NewParallelStreamAggregate(morsels(), nil, []int{0}, aggs, 3)),
			"Sort over ParallelMerge": parallel(parallelSort(morsels(), halve, []SortKey{{Col: 2}}, 3)),
		}
		for name, op := range ops {
			want := rowsKey(drain(t, op))
			if want == "" {
				t.Errorf("n=%d %s: produced no rows", n, name)
			}
			for round, pull := range []func(context.Context, Operator) ([]Row, error){DrainBatches, Drain, DrainBatches} {
				got, err := pull(nil, op)
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, name, err)
				}
				if rowsKey(got) != want {
					t.Errorf("n=%d %s: re-open %d differs from the first row-at-a-time drain (%d rows)", n, name, round+1, len(got))
				}
			}
		}
	}
}

// rowOnly computes only rows whatever its inner operator can do, standing in
// for a not-yet-vectorized operator in plan composition tests.
type rowOnly struct {
	inner Operator
}

func (r *rowOnly) Schema() []ColumnInfo             { return r.inner.Schema() }
func (r *rowOnly) Open() error                      { return r.inner.Open() }
func (r *rowOnly) Next() (Row, bool, error)         { return r.inner.Next() }
func (r *rowOnly) NextBatch() (*Batch, bool, error) { return nextBatchFromRows(r, DefaultBatchSize) }
func (r *rowOnly) Close() error                     { return r.inner.Close() }

// buildFilterAggPlan assembles Filter -> HashAggregate over the lineitem test
// table, optionally forcing the scan behind a row-only bridge.
func buildFilterAggPlan(t *testing.T, bridge bool) Operator {
	t.Helper()
	_, lineitem, _ := buildTestDB(t)
	var scan Operator = NewSeqScan(lineitem, nil)
	if bridge {
		scan = &rowOnly{inner: scan}
	}
	pred := expr.And(
		expr.NewBinary(expr.OpGt, expr.NewColumn(2, "l_shipdate"), expr.NewConst(value.MustParseDate("1995-04-01"))),
		expr.NewBinary(expr.OpLt, expr.NewColumn(1, "l_suppkey"), expr.NewConst(value.NewInt(20))),
	)
	filtered := NewFilter(scan, pred)
	return NewHashAggregate(filtered, []int{1}, []AggSpec{
		{Kind: AggCountStar, Name: "cnt"},
		{Kind: AggSum, Arg: expr.NewColumn(3, "l_extendedprice"), Name: "rev"},
		{Kind: AggMax, Arg: expr.NewColumn(2, "l_shipdate"), Name: "maxship"},
	})
}

func rowsKey(rows []Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBatchRowEquivalenceFilterAgg runs the same plan through Drain and
// DrainBatches (with and without a row-only bridge in the middle) and
// requires identical results.
func TestBatchRowEquivalenceFilterAgg(t *testing.T) {
	want, err := Drain(nil, buildFilterAggPlan(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test plan produced no rows")
	}
	for _, bridge := range []bool{false, true} {
		got, err := DrainBatches(nil, buildFilterAggPlan(t, bridge))
		if err != nil {
			t.Fatalf("bridge=%v: %v", bridge, err)
		}
		if rowsKey(got) != rowsKey(want) {
			t.Fatalf("bridge=%v: vectorized result differs\nvectorized:\n%srow:\n%s", bridge, rowsKey(got), rowsKey(want))
		}
	}
}

// TestBatchRowEquivalenceOperators covers the remaining vectorized operators:
// projection with computed expressions, sort, limit/offset, stream
// aggregation and seeks.
func TestBatchRowEquivalenceOperators(t *testing.T) {
	build := func(name string) func(t *testing.T) Operator {
		switch name {
		case "project-sort-limit":
			return func(t *testing.T) Operator {
				_, lineitem, _ := buildTestDB(t)
				scan := NewSeqScan(lineitem, nil)
				proj := NewProject(scan, []expr.Expr{
					expr.NewColumn(1, "l_suppkey"),
					expr.NewBinary(expr.OpMul, expr.NewColumn(3, "l_extendedprice"), expr.NewConst(value.NewFloat(1.07))),
				}, []string{"supp", "gross"})
				sorted := NewSort(proj, []SortKey{{Col: 1, Desc: true}, {Col: 0}})
				return NewLimit(sorted, 100, 13)
			}
		case "clustered-seek-stream-agg":
			return func(t *testing.T) Operator {
				_, lineitem, _ := buildTestDB(t)
				lo := []value.Value{value.MustParseDate("1995-03-01")}
				seek, err := NewClusteredSeek(lineitem, lo, nil, true, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				return NewStreamAggregate(seek, []int{2}, []AggSpec{
					{Kind: AggCountStar, Name: "cnt"},
					{Kind: AggMin, Arg: expr.NewColumn(1, "l_suppkey"), Name: "minsupp"},
				})
			}
		case "values-filter":
			return func(t *testing.T) Operator {
				var rows []Row
				for i := 0; i < 3000; i++ {
					rows = append(rows, intRow(int64(i), int64(i%7)))
				}
				vs := NewValuesScan([]ColumnInfo{{Name: "a", Kind: value.KindInt}, {Name: "b", Kind: value.KindInt}}, rows)
				return NewFilter(vs, expr.NewBinary(expr.OpEq, expr.NewColumn(1, "b"), expr.NewConst(value.NewInt(3))))
			}
		}
		panic("unknown plan " + name)
	}
	for _, name := range []string{"project-sort-limit", "clustered-seek-stream-agg", "values-filter"} {
		t.Run(name, func(t *testing.T) {
			want, err := Drain(nil, build(name)(t))
			if err != nil {
				t.Fatal(err)
			}
			got, err := DrainBatches(nil, build(name)(t))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("plan produced no rows")
			}
			if rowsKey(got) != rowsKey(want) {
				t.Fatalf("vectorized result differs\nvectorized (%d rows):\n%srow (%d rows):\n%s",
					len(got), rowsKey(got), len(want), rowsKey(want))
			}
		})
	}
}

// TestScanEncodeCols: scans with EncodeCols set emit compressed vectors for
// their sort-prefix columns without changing results, and an equality seek
// collapses its leading key column to a Const vector.
func TestScanEncodeCols(t *testing.T) {
	_, lineitem, _ := buildTestDB(t) // clustered on (l_shipdate, l_suppkey)
	plain := NewSeqScan(lineitem, nil)
	want, err := DrainBatches(nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewSeqScan(lineitem, nil)
	enc.EncodeCols = []int{2, 1} // l_shipdate, l_suppkey output positions
	if err := enc.Open(); err != nil {
		t.Fatal(err)
	}
	var got []Row
	sawRuns := false
	for {
		b, ok, err := enc.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e := b.Cols[2].Encoding(); e == vector.RLE || e == vector.Const {
			sawRuns = true
		}
		got = b.AppendRows(got)
	}
	enc.Close()
	if !sawRuns {
		t.Error("clustered-prefix column never compressed under EncodeCols")
	}
	if rowsKey(got) != rowsKey(want) {
		t.Fatal("EncodeCols scan changed the result")
	}
	// Equality seek on the leading clustered key: the range carries a single
	// shipdate, so the marked column arrives as one run — a Const vector.
	d := want[len(want)/2][2]
	seek, err := NewClusteredSeek(lineitem, []value.Value{d}, []value.Value{d}, true, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	seek.EncodeCols = []int{2}
	if err := seek.Open(); err != nil {
		t.Fatal(err)
	}
	b, ok, err := seek.NextBatch()
	if err != nil || !ok {
		t.Fatalf("equality seek returned nothing: ok=%v err=%v", ok, err)
	}
	if e := b.Cols[2].Encoding(); e != vector.Const {
		t.Errorf("equality-seek leading column encoding = %v, want const", e)
	}
	if v := b.Cols[2].Get(0); value.Compare(v, d) != 0 {
		t.Errorf("equality-seek constant = %v, want %v", v, d)
	}
	seek.Close()
}

func ExampleDrainBatches() {
	rows := []Row{intRow(1), intRow(2), intRow(3)}
	vs := NewValuesScan([]ColumnInfo{{Name: "x", Kind: value.KindInt}}, rows)
	f := NewFilter(vs, expr.NewBinary(expr.OpGe, expr.NewColumn(0, "x"), expr.NewConst(value.NewInt(2))))
	out, _ := DrainBatches(nil, f)
	for _, r := range out {
		fmt.Println(r[0])
	}
	// Output:
	// 2
	// 3
}
