package exec

import (
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/expr"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// Edge-behavior tests for the row-at-a-time joins: empty inputs, all-duplicate
// keys, NULL join keys and residuals that reject every match. These pin SQL
// semantics the original operators got wrong — value.Compare orders NULL equal
// to NULL, so MergeJoin paired NULL keys, and IndexNestedLoopJoin seeded seeks
// with NULL bounds (which sort before everything and match real rows).

func intCols(names ...string) []ColumnInfo {
	out := make([]ColumnInfo, len(names))
	for i, n := range names {
		out[i] = ColumnInfo{Name: n, Kind: value.KindInt}
	}
	return out
}

func TestMergeJoinEmptyInputs(t *testing.T) {
	cols := intCols("k", "v")
	some := []Row{intRow(1, 10), intRow(2, 20)}
	cases := map[string]struct{ left, right []Row }{
		"empty right": {some, nil},
		"empty left":  {nil, some},
		"both empty":  {nil, nil},
	}
	for name, c := range cases {
		mj, err := NewMergeJoin(NewValuesScan(cols, c.left), NewValuesScan(cols, c.right), []int{0}, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rows := drain(t, mj); len(rows) != 0 {
			t.Errorf("%s: merge join produced %d rows, want 0", name, len(rows))
		}
	}
}

func TestMergeJoinNullKeysNeverMatch(t *testing.T) {
	cols := []ColumnInfo{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}}
	// Sorted inputs with NULL keys first (value order puts NULL before all).
	left := []Row{
		{value.Null(), value.NewInt(100)},
		{value.Null(), value.NewInt(101)},
		{value.NewInt(1), value.NewInt(102)},
		{value.NewInt(3), value.NewInt(103)},
	}
	right := []Row{
		{value.Null(), value.NewInt(200)},
		{value.NewInt(1), value.NewInt(201)},
		{value.NewInt(2), value.NewInt(202)},
	}
	mj, err := NewMergeJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, mj)
	if len(rows) != 1 {
		t.Fatalf("NULL keys matched in merge join: got %d rows, want 1", len(rows))
	}
	if rows[0][0].Int() != 1 || rows[0][2].Int() != 1 {
		t.Fatalf("unexpected merge join row %v", rows[0])
	}
	// Composite keys with a NULL component never match either.
	ccols := intCols("a", "b")
	cleft := []Row{{value.NewInt(1), value.Null()}, {value.NewInt(1), value.NewInt(2)}}
	cright := []Row{{value.NewInt(1), value.Null()}, {value.NewInt(1), value.NewInt(2)}}
	cmj, err := NewMergeJoin(NewValuesScan(ccols, cleft), NewValuesScan(ccols, cright), []int{0, 1}, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	crows := drain(t, cmj)
	if len(crows) != 1 {
		t.Fatalf("composite NULL keys matched: got %d rows, want 1", len(crows))
	}
}

func TestMergeJoinAllDuplicateKeys(t *testing.T) {
	cols := intCols("k", "v")
	var left, right []Row
	for i := 0; i < 7; i++ {
		left = append(left, intRow(42, int64(i)))
	}
	for i := 0; i < 5; i++ {
		right = append(right, intRow(42, int64(100+i)))
	}
	mj, err := NewMergeJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, mj)
	if len(rows) != 35 {
		t.Fatalf("all-duplicate merge join rows = %d, want 35", len(rows))
	}
	// Same shape through the hash joins.
	hj, _ := NewHashJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if rows := drain(t, hj); len(rows) != 35 {
		t.Errorf("all-duplicate hash join rows = %d, want 35", len(rows))
	}
	vj, _ := NewVectorizedHashJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if rows := drainVec(t, vj); len(rows) != 35 {
		t.Errorf("all-duplicate vectorized hash join rows = %d, want 35", len(rows))
	}
}

func TestMergeJoinResidualRejectsAll(t *testing.T) {
	cols := intCols("k", "v")
	left := []Row{intRow(1, 1), intRow(2, 2)}
	right := []Row{intRow(1, 10), intRow(2, 20)}
	never := expr.NewBinary(expr.OpLt, expr.NewColumn(1, "v"), expr.NewConst(value.NewInt(-1)))
	mj, err := NewMergeJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, never)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, mj); len(rows) != 0 {
		t.Errorf("merge join with all-rejecting residual produced %d rows", len(rows))
	}
}

// inlFixture builds an inner table clustered on k — including a NULL-keyed
// row, which a NULL-bounded seek would otherwise pick up — and an outer
// ValuesScan whose k column supplies the probe bounds.
func inlFixture(t *testing.T, outerRows []Row) (*IndexNestedLoopJoin, error) {
	t.Helper()
	c := catalog.New(storage.NewPager(0))
	inner, err := c.CreateTable("inner", []catalog.Column{
		{Name: "k", Kind: value.KindInt},
		{Name: "w", Kind: value.KindInt},
	}, []string{"k", "w"})
	if err != nil {
		t.Fatal(err)
	}
	innerRows := [][]value.Value{
		{value.Null(), value.NewInt(999)},
		{value.NewInt(1), value.NewInt(10)},
		{value.NewInt(1), value.NewInt(11)},
		{value.NewInt(2), value.NewInt(20)},
		{value.NewInt(5), value.NewInt(50)},
	}
	if err := inner.BulkLoad(innerRows); err != nil {
		t.Fatal(err)
	}
	outer := NewValuesScan(intCols("k"), outerRows)
	spec := InnerSeekSpec{
		Table:   inner,
		LoExprs: []expr.Expr{expr.NewColumn(0, "k")},
		HiExprs: []expr.Expr{expr.NewColumn(0, "k")},
		LoIncl:  true, HiIncl: true,
	}
	return NewIndexNestedLoopJoin(outer, spec, nil)
}

func TestIndexNestedLoopJoinNullBounds(t *testing.T) {
	// A NULL outer key produces NULL seek bounds; the probe must be skipped
	// (before the fix, lo=hi=NULL seeked the NULL-keyed inner row).
	join, err := inlFixture(t, []Row{{value.Null()}, {value.NewInt(1)}, {value.Null()}})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, join)
	if len(rows) != 2 {
		t.Fatalf("NULL-bounded INL join rows = %d, want 2 (k=1 twice)", len(rows))
	}
	for _, r := range rows {
		if r[0].Int() != 1 || r[1].Int() != 1 {
			t.Fatalf("unexpected INL row %v", r)
		}
	}
}

func TestIndexNestedLoopJoinEmptyInputs(t *testing.T) {
	// Empty outer: no probes at all.
	join, err := inlFixture(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, join); len(rows) != 0 {
		t.Errorf("empty-outer INL join produced %d rows", len(rows))
	}
	// Outer keys that match no inner range.
	join2, err := inlFixture(t, []Row{{value.NewInt(100)}, {value.NewInt(-3)}})
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, join2); len(rows) != 0 {
		t.Errorf("no-match INL join produced %d rows", len(rows))
	}
}

func TestIndexNestedLoopJoinResidualRejectsAll(t *testing.T) {
	c := catalog.New(storage.NewPager(0))
	inner, err := c.CreateTable("inner", []catalog.Column{
		{Name: "k", Kind: value.KindInt},
		{Name: "w", Kind: value.KindInt},
	}, []string{"k", "w"})
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.BulkLoad([][]value.Value{
		{value.NewInt(1), value.NewInt(10)},
		{value.NewInt(2), value.NewInt(20)},
	}); err != nil {
		t.Fatal(err)
	}
	outer := NewValuesScan(intCols("k"), []Row{intRow(1), intRow(2)})
	spec := InnerSeekSpec{
		Table:   inner,
		LoExprs: []expr.Expr{expr.NewColumn(0, "k")},
		HiExprs: []expr.Expr{expr.NewColumn(0, "k")},
		LoIncl:  true, HiIncl: true,
	}
	never := expr.NewBinary(expr.OpLt, expr.NewColumn(2, "w"), expr.NewConst(value.NewInt(0)))
	join, err := NewIndexNestedLoopJoin(outer, spec, never)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, join); len(rows) != 0 {
		t.Errorf("INL join with all-rejecting residual produced %d rows", len(rows))
	}
}

// TestHashJoinStringKeys covers the encoded-key path of both hash joins:
// single string keys build into the generic map and must match exactly.
func TestHashJoinStringKeys(t *testing.T) {
	cols := []ColumnInfo{{Name: "k", Kind: value.KindString}, {Name: "v", Kind: value.KindInt}}
	left := []Row{
		{value.NewString("a"), value.NewInt(1)},
		{value.NewString("b"), value.NewInt(2)},
		{value.Null(), value.NewInt(3)},
		{value.NewString("a"), value.NewInt(4)},
	}
	right := []Row{
		{value.NewString("a"), value.NewInt(10)},
		{value.Null(), value.NewInt(30)},
		{value.NewString("c"), value.NewInt(20)},
	}
	hj, err := NewHashJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, hj)
	if len(want) != 2 { // "a" twice on the left x once on the right
		t.Fatalf("string-key hash join rows = %d, want 2", len(want))
	}
	vj, err := NewVectorizedHashJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drainVec(t, vj)
	if g, w := formatJoinRows(got), formatJoinRows(want); g != w {
		t.Errorf("string-key joins disagree\nvectorized:\n%s\nrow:\n%s", g, w)
	}
}

// TestHashJoinLargeIntKeysExact pins exact int64 equality for hash joins: the
// typed key word passes through float64 and collapses ints beyond 2^53, so
// without the per-pair Compare re-check 2^53 and 2^53+1 would spuriously
// join. SQL '=' compares int-int pairs exactly; the joins must too.
func TestHashJoinLargeIntKeysExact(t *testing.T) {
	const big = int64(1) << 53 // 9007199254740992
	cols := []ColumnInfo{{Name: "k", Kind: value.KindInt}}
	left := []Row{intRow(big + 1), intRow(big), intRow(big + 3)}
	right := []Row{intRow(big), intRow(big + 2), intRow(big + 1)}
	check := func(name string, rows []Row) {
		t.Helper()
		if len(rows) != 2 {
			t.Fatalf("%s: large-int join rows = %d, want 2 (%v)", name, len(rows), rows)
		}
		for _, r := range rows {
			if r[0].Int() != r[1].Int() {
				t.Fatalf("%s: spurious large-int match %v = %v", name, r[0], r[1])
			}
		}
	}
	hj, err := NewHashJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("row", drain(t, hj))
	vj, err := NewVectorizedHashJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("vectorized", drainVec(t, vj))
	// Composite (encoded-key) path collapses the same way; re-check covers it.
	ccols := intCols("a", "b")
	cleft := []Row{{value.NewInt(big + 1), value.NewInt(1)}}
	cright := []Row{{value.NewInt(big), value.NewInt(1)}, {value.NewInt(big + 1), value.NewInt(1)}}
	cvj, err := NewVectorizedHashJoin(NewValuesScan(ccols, cleft), NewValuesScan(ccols, cright),
		[]int{0, 1}, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	crows := drainVec(t, cvj)
	if len(crows) != 1 || crows[0][2].Int() != big+1 {
		t.Fatalf("composite large-int join rows = %v, want the single exact match", crows)
	}
	// Mixed int/float keys keep SQL's float comparison semantics: an int
	// beyond 2^53 equals the float it rounds to under value.Compare.
	fcols := []ColumnInfo{{Name: "k", Kind: value.KindFloat}}
	fright := []Row{{value.NewFloat(float64(big))}}
	mvj, err := NewVectorizedHashJoin(NewValuesScan(cols, []Row{intRow(big + 1)}), NewValuesScan(fcols, fright),
		[]int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mrows := drainVec(t, mvj)
	if len(mrows) != 1 {
		t.Fatalf("mixed int/float join rows = %d, want 1 (Compare is float-based across kinds)", len(mrows))
	}
}

// TestHashJoinNegativeZeroKeys: -0.0 and +0.0 are Compare-equal, so SQL '='
// joins them; the typed key word normalizes negative zero so hash joins agree
// with the merge join (before the fix both hash joins bucketed them apart and
// silently dropped the match).
func TestHashJoinNegativeZeroKeys(t *testing.T) {
	cols := []ColumnInfo{{Name: "k", Kind: value.KindFloat}}
	negZero := value.NewFloat(-1.0 * 0.0)
	left := []Row{{negZero}}
	right := []Row{{value.NewFloat(0.0)}}
	hj, err := NewHashJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, hj); len(rows) != 1 {
		t.Errorf("row hash join: -0.0 = +0.0 produced %d rows, want 1", len(rows))
	}
	vj, err := NewVectorizedHashJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drainVec(t, vj); len(rows) != 1 {
		t.Errorf("vectorized hash join: -0.0 = +0.0 produced %d rows, want 1", len(rows))
	}
	mj, err := NewMergeJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, mj); len(rows) != 1 {
		t.Errorf("merge join oracle: -0.0 = +0.0 produced %d rows, want 1", len(rows))
	}
}
