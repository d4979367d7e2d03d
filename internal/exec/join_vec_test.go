package exec

import (
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/expr"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// formatJoinRows renders rows (kinds, values and order) for exact comparison.
func formatJoinRows(rows []Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			sb.WriteString(v.Kind.String())
			sb.WriteByte(':')
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// drainVec runs an operator through the batch protocol.
func drainVec(t testing.TB, op Operator) []Row {
	t.Helper()
	rows, err := DrainBatches(nil, op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// joinTestInputs builds matching probe/build ValuesScans with duplicate keys,
// NULL keys on both sides, string payloads and float columns.
func joinTestInputs() (probe, build *ValuesScan) {
	probeCols := []ColumnInfo{
		{Name: "k", Kind: value.KindInt},
		{Name: "p", Kind: value.KindFloat},
	}
	buildCols := []ColumnInfo{
		{Name: "bk", Kind: value.KindInt},
		{Name: "tag", Kind: value.KindString},
	}
	var probeRows, buildRows []Row
	for i := 0; i < 100; i++ {
		k := value.NewInt(int64(i % 17))
		if i%13 == 0 {
			k = value.Null()
		}
		probeRows = append(probeRows, Row{k, value.NewFloat(float64(i))})
	}
	for i := 0; i < 40; i++ {
		k := value.NewInt(int64(i % 23))
		if i%11 == 0 {
			k = value.Null()
		}
		buildRows = append(buildRows, Row{k, value.NewString(fmt.Sprintf("b%d", i))})
	}
	return NewValuesScan(probeCols, probeRows), NewValuesScan(buildCols, buildRows)
}

// TestVectorizedHashJoinMatchesRowHashJoin holds the batch join to the row
// oracle, exactly (values and order), over inputs with duplicate and NULL
// keys, with and without a residual predicate.
func TestVectorizedHashJoinMatchesRowHashJoin(t *testing.T) {
	residuals := map[string]expr.Expr{
		"no residual": nil,
		"residual":    expr.NewBinary(expr.OpLt, expr.NewColumn(1, "p"), expr.NewConst(value.NewFloat(60))),
		"reject all":  expr.NewBinary(expr.OpLt, expr.NewColumn(1, "p"), expr.NewConst(value.NewFloat(-1))),
	}
	for name, residual := range residuals {
		probe, build := joinTestInputs()
		vj, err := NewVectorizedHashJoin(probe, build, []int{0}, []int{0}, residual)
		if err != nil {
			t.Fatal(err)
		}
		got := drainVec(t, vj)
		probe2, build2 := joinTestInputs()
		hj, err := NewHashJoin(probe2, build2, []int{0}, []int{0}, residual)
		if err != nil {
			t.Fatal(err)
		}
		want := drain(t, hj)
		if name == "no residual" && len(want) == 0 {
			t.Fatal("oracle join produced no rows; fixture is degenerate")
		}
		if g, w := formatJoinRows(got), formatJoinRows(want); g != w {
			t.Errorf("%s: vectorized join differs from row oracle\nvectorized (%d rows):\n%s\nrow (%d rows):\n%s",
				name, len(got), g, len(want), w)
		}
		// The row protocol of the vectorized join must agree with its batch
		// protocol.
		probe3, build3 := joinTestInputs()
		vj2, _ := NewVectorizedHashJoin(probe3, build3, []int{0}, []int{0}, residual)
		rowDrain := drain(t, vj2)
		if g, w := formatJoinRows(rowDrain), formatJoinRows(want); g != w {
			t.Errorf("%s: vectorized join row protocol diverges from oracle", name)
		}
	}
}

// TestVectorizedHashJoinNullKeysNeverMatch pins SQL equality semantics for
// both hash joins: NULL keys match nothing, not even other NULLs.
func TestVectorizedHashJoinNullKeysNeverMatch(t *testing.T) {
	cols := []ColumnInfo{{Name: "k", Kind: value.KindInt}}
	nullRows := []Row{{value.Null()}, {value.NewInt(1)}, {value.Null()}}
	makeJoins := func() (Operator, Operator) {
		vj, _ := NewVectorizedHashJoin(NewValuesScan(cols, nullRows), NewValuesScan(cols, nullRows), []int{0}, []int{0}, nil)
		hj, _ := NewHashJoin(NewValuesScan(cols, nullRows), NewValuesScan(cols, nullRows), []int{0}, []int{0}, nil)
		return vj, hj
	}
	vj, hj := makeJoins()
	for name, op := range map[string]Operator{"vectorized": vj, "row": hj} {
		rows := drain(t, op)
		if len(rows) != 1 {
			t.Errorf("%s join: NULL keys matched: got %d rows, want 1 (the 1=1 pair)", name, len(rows))
		}
	}
}

// TestVectorizedHashJoinEmptyInputs: an empty build side yields no rows (the
// probe still drains cleanly); an empty probe side yields no rows without
// touching the build table's buckets.
func TestVectorizedHashJoinEmptyInputs(t *testing.T) {
	cols := []ColumnInfo{{Name: "k", Kind: value.KindInt}}
	some := []Row{{value.NewInt(1)}, {value.NewInt(2)}}
	vj, _ := NewVectorizedHashJoin(NewValuesScan(cols, some), NewValuesScan(cols, nil), []int{0}, []int{0}, nil)
	if rows := drainVec(t, vj); len(rows) != 0 {
		t.Errorf("empty build side produced %d rows", len(rows))
	}
	vj2, _ := NewVectorizedHashJoin(NewValuesScan(cols, nil), NewValuesScan(cols, some), []int{0}, []int{0}, nil)
	if rows := drainVec(t, vj2); len(rows) != 0 {
		t.Errorf("empty probe side produced %d rows", len(rows))
	}
}

// TestVectorizedHashJoinMultiKey covers the composite (encoded) key path,
// including NULL components on either side.
func TestVectorizedHashJoinMultiKey(t *testing.T) {
	cols := []ColumnInfo{
		{Name: "a", Kind: value.KindInt},
		{Name: "b", Kind: value.KindString},
	}
	rows := func(n int, nullEvery int) []Row {
		var out []Row
		for i := 0; i < n; i++ {
			a := value.NewInt(int64(i % 5))
			if nullEvery > 0 && i%nullEvery == 0 {
				a = value.Null()
			}
			out = append(out, Row{a, value.NewString(fmt.Sprintf("s%d", i%3))})
		}
		return out
	}
	vj, err := NewVectorizedHashJoin(NewValuesScan(cols, rows(60, 7)), NewValuesScan(cols, rows(45, 9)),
		[]int{0, 1}, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drainVec(t, vj)
	hj, _ := NewHashJoin(NewValuesScan(cols, rows(60, 7)), NewValuesScan(cols, rows(45, 9)),
		[]int{0, 1}, []int{0, 1}, nil)
	want := drain(t, hj)
	if len(want) == 0 {
		t.Fatal("oracle multi-key join produced no rows")
	}
	if g, w := formatJoinRows(got), formatJoinRows(want); g != w {
		t.Errorf("multi-key join differs from oracle\nvectorized:\n%s\nrow:\n%s", g, w)
	}
}

// vecBatchSource is an Operator emitting pre-built (possibly compressed)
// batches, for probing the encoding-aware key paths directly.
type vecBatchSource struct {
	cols    []ColumnInfo
	batches []*Batch
	pos     int
	rows    batchRowCursor
}

func (s *vecBatchSource) Schema() []ColumnInfo { return s.cols }
func (s *vecBatchSource) Open() error          { s.pos = 0; s.rows.reset(); return nil }
func (s *vecBatchSource) Close() error         { return nil }
func (s *vecBatchSource) NextBatch() (*Batch, bool, error) {
	if s.pos >= len(s.batches) {
		return nil, false, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, true, nil
}
func (s *vecBatchSource) Next() (Row, bool, error) { return s.rows.next(s.NextBatch) }

// TestVectorizedHashJoinCompressedProbeKeys probes with Const, RLE and Dict
// key vectors (hashing once per run / dictionary entry) and checks the result
// against the same join over the decompressed batches.
func TestVectorizedHashJoinCompressedProbeKeys(t *testing.T) {
	buildCols := []ColumnInfo{{Name: "bk", Kind: value.KindInt}, {Name: "w", Kind: value.KindInt}}
	var buildRows []Row
	for i := 0; i < 30; i++ {
		buildRows = append(buildRows, Row{value.NewInt(int64(i % 10)), value.NewInt(int64(i))})
	}
	probeCols := []ColumnInfo{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindInt}}

	mkPayload := func(n int) *vector.Vector {
		vals := make([]value.Value, n)
		for i := range vals {
			vals[i] = value.NewInt(int64(1000 + i))
		}
		return vector.NewFlat(vals)
	}
	rleKeys := vector.NewRLE(
		[]value.Value{value.NewInt(2), value.NewInt(5), value.NewInt(7)},
		[]int{40, 70, 100})
	dictCodes := make([]uint32, 100)
	for i := range dictCodes {
		dictCodes[i] = uint32(i % 4)
	}
	dictKeys := vector.NewDict(
		[]value.Value{value.NewInt(1), value.NewInt(3), value.NewInt(8), value.NewInt(42)},
		dictCodes)
	cases := map[string]*vector.Vector{
		"const": vector.NewConst(value.NewInt(4), 100),
		"rle":   rleKeys,
		"dict":  dictKeys,
	}
	for name, keyVec := range cases {
		compressed := &vecBatchSource{cols: probeCols, batches: []*Batch{
			NewBatchFromVectors([]*vector.Vector{keyVec, mkPayload(keyVec.Len())}),
		}}
		flat := &vecBatchSource{cols: probeCols, batches: []*Batch{
			NewBatchFromVectors([]*vector.Vector{
				vector.NewFlat(append([]value.Value(nil), keyVec.Flat()...)),
				mkPayload(keyVec.Len()),
			}),
		}}
		run := func(src Operator) []Row {
			vj, err := NewVectorizedHashJoin(src, NewValuesScan(buildCols, buildRows), []int{0}, []int{0}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return drainVec(t, vj)
		}
		got, want := run(compressed), run(flat)
		if len(want) == 0 {
			t.Fatalf("%s: flat probe produced no rows; fixture is degenerate", name)
		}
		if g, w := formatJoinRows(got), formatJoinRows(want); g != w {
			t.Errorf("%s probe keys: compressed and flat probes disagree\ncompressed:\n%s\nflat:\n%s", name, g, w)
		}
	}
}

// TestVectorizedHashJoinSelectionOnProbe runs the join under a probe-side
// filter (so probe batches carry selection vectors) and checks against the
// oracle.
func TestVectorizedHashJoinSelectionOnProbe(t *testing.T) {
	pred := expr.NewBinary(expr.OpGt, expr.NewColumn(1, "p"), expr.NewConst(value.NewFloat(20)))
	probe, build := joinTestInputs()
	vj, _ := NewVectorizedHashJoin(NewFilter(probe, pred), build, []int{0}, []int{0}, nil)
	got := drainVec(t, vj)
	probe2, build2 := joinTestInputs()
	hj, _ := NewHashJoin(NewFilter(probe2, pred), build2, []int{0}, []int{0}, nil)
	want := drain(t, hj)
	if len(want) == 0 {
		t.Fatal("oracle join produced no rows")
	}
	if g, w := formatJoinRows(got), formatJoinRows(want); g != w {
		t.Errorf("filtered probe join differs from oracle\nvectorized:\n%s\nrow:\n%s", g, w)
	}
}

// bigJoinTables builds a probe table large enough to morselize (several leaf
// pages beyond DefaultMorselRows) and a build table with duplicate keys.
func bigJoinTables(t testing.TB) (*catalog.Table, *catalog.Table) {
	t.Helper()
	c := catalog.New(storage.NewPager(0))
	facts, err := c.CreateTable("facts", []catalog.Column{
		{Name: "id", Kind: value.KindInt},
		{Name: "k", Kind: value.KindInt},
		{Name: "x", Kind: value.KindFloat},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	dims, err := c.CreateTable("dims", []catalog.Column{
		{Name: "dk", Kind: value.KindInt},
		{Name: "grp", Kind: value.KindInt},
	}, []string{"dk", "grp"})
	if err != nil {
		t.Fatal(err)
	}
	var factRows, dimRows [][]value.Value
	for i := 0; i < 3*DefaultMorselRows; i++ {
		factRows = append(factRows, []value.Value{
			value.NewInt(int64(i)), value.NewInt(int64(i % 500)), value.NewFloat(float64(i % 97)),
		})
	}
	// Build keys 0..499 appear twice, DefaultMorselRows/2 positions apart, so
	// duplicate-key buckets span build-morsel boundaries and exercise the
	// morsel-order merge of the parallel build.
	for i := 0; i < 3*DefaultMorselRows/2; i++ {
		dimRows = append(dimRows, []value.Value{
			value.NewInt(int64(i % (DefaultMorselRows / 2))), value.NewInt(int64(i % 7)),
		})
	}
	if err := facts.BulkLoad(factRows); err != nil {
		t.Fatal(err)
	}
	if err := dims.BulkLoad(dimRows); err != nil {
		t.Fatal(err)
	}
	return facts, dims
}

// TestVectorizedHashJoinParallelBuild: the morsel-parallel build (per-worker
// partitions merged in morsel order) must be bit-identical to the serial
// build — same matches, same order — at several worker counts.
func TestVectorizedHashJoinParallelBuild(t *testing.T) {
	facts, dims := bigJoinTables(t)
	mk := func() (*VectorizedHashJoin, *TableScan) {
		buildScan := NewSeqScan(dims, nil)
		vj, err := NewVectorizedHashJoin(NewSeqScan(facts, nil), buildScan, []int{1}, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return vj, buildScan
	}
	serialJoin, _ := mk()
	want := drainVec(t, serialJoin)
	if len(want) == 0 {
		t.Fatal("serial join produced no rows")
	}
	for _, workers := range []int{2, 4, 8} {
		parJoin, buildScan := mk()
		parJoin.ParallelForm(buildScan, nil, workers)
		if got := parJoin.BuildParallelism(); got != workers {
			t.Fatalf("BuildParallelism() = %d, want %d", got, workers)
		}
		got := drainVec(t, parJoin)
		if g, w := formatJoinRows(got), formatJoinRows(want); g != w {
			t.Errorf("workers=%d: parallel build result diverges from serial (%d vs %d rows)",
				workers, len(got), len(want))
		}
	}
}

// TestVectorizedHashJoinClonesShareBuild: probe-side clones created for
// morsel pipelines share one build; each clone sees the full table and their
// concatenated output in morsel order equals the unsplit join's output.
func TestVectorizedHashJoinClonesShareBuild(t *testing.T) {
	facts, dims := bigJoinTables(t)
	whole, err := NewVectorizedHashJoin(NewSeqScan(facts, nil), NewSeqScan(dims, nil), []int{1}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := drainVec(t, whole)

	probe := NewSeqScan(facts, nil)
	shared, err := NewVectorizedHashJoin(NewSeqScan(facts, nil), NewSeqScan(dims, nil), []int{1}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts, ok := probe.Morsels(DefaultMorselRows, true)
	if !ok {
		t.Fatal("probe table did not morselize")
	}
	var got []Row
	for _, part := range parts {
		clone := shared.CloneOver(part)
		rows, err := DrainBatches(nil, clone)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
	}
	if g, w := formatJoinRows(got), formatJoinRows(want); g != w {
		t.Errorf("clone outputs concatenated in morsel order diverge from the unsplit join (%d vs %d rows)",
			len(got), len(want))
	}
}

// TestParallelJoinReleasesBuildOnClose: a join absorbed into a morsel
// pipeline — as plan.Parallelize absorbs it, leaving only its per-morsel
// clones in the tree — has its build table released when the parallel
// operator running the pipeline closes, so an idle cached plan pins no build
// side, and the next execution rebuilds it to the same answer. The check
// covers the row-stream merge and a breaker, and a join whose own build is
// a pipeline that absorbed a second join.
func TestParallelJoinReleasesBuildOnClose(t *testing.T) {
	facts, dims := bigJoinTables(t)
	join := func(probe, build Operator) *VectorizedHashJoin {
		vj, err := NewVectorizedHashJoin(probe, build, []int{1}, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return vj
	}
	aggs := []AggSpec{{Kind: AggCountStar, Name: "cnt"}}
	for _, form := range []string{"merge", "hash aggregate", "nested build"} {
		probe := NewSeqScan(facts, nil)
		inner := join(probe, NewSeqScan(dims, nil))
		joins := []*VectorizedHashJoin{inner}
		var par Operator
		var ok bool
		switch form {
		case "merge":
			par, ok = parallelForm(NewParallelMerge(probe, inner.CloneOver, 2))
		case "hash aggregate":
			par, ok = parallelForm(NewParallelHashAggregate(probe, inner.CloneOver, []int{1}, aggs, 2))
		case "nested build":
			// The outer join's build side is the facts ⋈ dims pipeline: its
			// parallel build absorbs the inner join.
			outer := join(NewSeqScan(dims, nil), inner)
			par, ok = outer.ParallelForm(probe, inner.CloneOver, 2)
			joins = append(joins, outer)
		}
		if !ok {
			t.Fatalf("%s: no parallel form", form)
		}
		first := drainVec(t, par)
		for _, j := range joins {
			if j.shared.table != nil || j.shared.built {
				t.Errorf("%s: a build table is still reachable after Close", form)
			}
		}
		if g, w := formatJoinRows(drainVec(t, par)), formatJoinRows(first); g != w || len(first) == 0 {
			t.Errorf("%s: re-execution after the release diverges (%d rows first)", form, len(first))
		}
	}
}

// TestVectorizedHashJoinReopen: a serial join re-opened after a full drain
// rebuilds its table and produces the same result (Operator contract).
func TestVectorizedHashJoinReopen(t *testing.T) {
	cols := []ColumnInfo{{Name: "k", Kind: value.KindInt}}
	rows := []Row{{value.NewInt(1)}, {value.NewInt(2)}, {value.NewInt(1)}}
	vj, err := NewVectorizedHashJoin(NewValuesScan(cols, rows), NewValuesScan(cols, rows), []int{0}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := drainVec(t, vj)
	second := drainVec(t, vj)
	if len(first) != 5 { // two k=1 probes x two k=1 build rows, plus 2=2
		t.Fatalf("first drain rows = %d, want 5", len(first))
	}
	if g, w := formatJoinRows(second), formatJoinRows(first); g != w {
		t.Fatalf("re-opened join diverges:\n%s\nvs\n%s", g, w)
	}
}
