package exec

import (
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/expr"
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

// TestAdaptersRoundTrip pushes rows through BatchSource and RowSource and
// checks nothing is lost, reordered or duplicated across batch boundaries.
func TestAdaptersRoundTrip(t *testing.T) {
	n := 2*DefaultBatchSize + 37 // force several batches plus a partial one
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = intRow(int64(i))
	}
	cols := []ColumnInfo{{Name: "x", Kind: value.KindInt}}
	vs := NewValuesScan(cols, rows)
	rs := AsRowOperator(&BatchSource{Input: vs})
	got, err := Drain(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("round trip produced %d rows, want %d", len(got), n)
	}
	for i, r := range got {
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

// TestAsBatchOperatorIdentity: batch-native operators are not re-wrapped.
func TestAsBatchOperatorIdentity(t *testing.T) {
	vs := NewValuesScan([]ColumnInfo{{Name: "x", Kind: value.KindInt}}, nil)
	if AsBatchOperator(vs) != BatchOperator(vs) {
		t.Fatal("AsBatchOperator wrapped a batch-native operator")
	}
	f := NewFilter(vs, nil)
	if AsBatchOperator(f) != BatchOperator(f) {
		t.Fatal("AsBatchOperator wrapped a batch-native Filter")
	}
}

// rowOnly hides the batch interface of an operator, standing in for a
// not-yet-vectorized operator in plan composition tests.
type rowOnly struct {
	inner Operator
}

func (r *rowOnly) Schema() []ColumnInfo     { return r.inner.Schema() }
func (r *rowOnly) Open() error              { return r.inner.Open() }
func (r *rowOnly) Next() (Row, bool, error) { return r.inner.Next() }
func (r *rowOnly) Close() error             { return r.inner.Close() }

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
		got, err := DrainBatches(nil, AsBatchOperator(buildFilterAggPlan(t, bridge)))
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
			got, err := DrainBatches(nil, AsBatchOperator(build(name)(t)))
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

// TestRowSourceAcrossBatches checks RowSource's cursor over multi-batch input
// including selection vectors produced by a filter.
func TestRowSourceAcrossBatches(t *testing.T) {
	var rows []Row
	n := DefaultBatchSize + 100
	for i := 0; i < n; i++ {
		rows = append(rows, intRow(int64(i)))
	}
	vs := NewValuesScan([]ColumnInfo{{Name: "x", Kind: value.KindInt}}, rows)
	f := NewFilter(vs, expr.NewBinary(expr.OpGe, expr.NewColumn(0, "x"), expr.NewConst(value.NewInt(0))))
	rs := &RowSource{Input: f}
	got, err := Drain(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("RowSource produced %d rows, want %d", len(got), n)
	}
}

func ExampleDrainBatches() {
	rows := []Row{intRow(1), intRow(2), intRow(3)}
	vs := NewValuesScan([]ColumnInfo{{Name: "x", Kind: value.KindInt}}, rows)
	f := NewFilter(vs, expr.NewBinary(expr.OpGe, expr.NewColumn(0, "x"), expr.NewConst(value.NewInt(2))))
	out, _ := DrainBatches(nil, AsBatchOperator(f))
	for _, r := range out {
		fmt.Println(r[0])
	}
	// Output:
	// 2
	// 3
}
