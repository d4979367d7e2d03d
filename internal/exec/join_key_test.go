package exec

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"oldelephant/internal/expr"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// joinKey is appendJoinKey's bytes for a key with no NULL component.
func joinKey(t *testing.T, vals ...value.Value) []byte {
	t.Helper()
	b, ok := appendJoinKey(nil, vals)
	if !ok {
		t.Fatalf("appendJoinKey flagged %v as NULL", vals)
	}
	return b
}

// TestJoinKeyBytes pins the join-key encoding both hash joins bucket by:
// Compare-equal numbers share bytes and distinct values do not.
func TestJoinKeyBytes(t *testing.T) {
	key := func(vals ...value.Value) []byte {
		t.Helper()
		return joinKey(t, vals...)
	}
	equal := [][2]value.Value{
		{value.NewInt(7), value.NewFloat(7)},
		{value.NewInt(0), value.NewFloat(math.Copysign(0, -1))},
		{value.NewFloat(0), value.NewFloat(math.Copysign(0, -1))},
		{value.NewInt(-3), value.NewFloat(-3)},
		{value.NewDate(1000), value.NewInt(1000)},
		{value.NewInt(1<<53 + 1), value.NewFloat(1 << 53)},
	}
	for _, p := range equal {
		if a, b := key(p[0]), key(p[1]); !bytes.Equal(a, b) {
			t.Errorf("Compare-equal %v and %v have keys %x and %x", p[0], p[1], a, b)
		}
		if a, b := key(p[0], value.NewString("x")), key(p[1], value.NewString("x")); !bytes.Equal(a, b) {
			t.Errorf("Compare-equal composites over %v and %v have keys %x and %x", p[0], p[1], a, b)
		}
	}
	distinct := []value.Value{
		value.NewInt(1), value.NewInt(2), value.NewFloat(1.5), value.NewInt(-1),
		value.NewString(""), value.NewString("1"), value.NewString("a\x00"), value.NewString("a"),
	}
	seen := map[string]value.Value{}
	for _, v := range distinct {
		k := string(key(v))
		if prev, dup := seen[k]; dup {
			t.Errorf("distinct values %v and %v share key %x", prev, v, k)
		}
		seen[k] = v
	}
	// Composite keys are prefix-free column by column.
	if a, b := key(value.NewString("a"), value.NewString("b")), key(value.NewString("ab"), value.NewString("")); bytes.Equal(a, b) {
		t.Errorf("('a','b') and ('ab','') share key %x", a)
	}
}

// TestAppendJoinKey: any NULL component flags the key as one that joins
// nothing, and the key is appended to the buffer it is given.
func TestAppendJoinKey(t *testing.T) {
	buf := []byte("prefix")
	for _, vals := range [][]value.Value{
		{value.Null()},
		{value.NewInt(1), value.Null()},
		{value.Null(), value.NewString("a")},
	} {
		if _, ok := appendJoinKey(buf, vals); ok {
			t.Errorf("appendJoinKey missed a NULL key component in %v", vals)
		}
	}
	want := joinKey(t, value.NewInt(1), value.NewString("a"))
	if got, _ := appendJoinKey(buf, []value.Value{value.NewInt(1), value.NewString("a")}); !bytes.Equal(got[:len(buf)], buf) || !bytes.Equal(got[len(buf):], want) {
		t.Errorf("appendJoinKey onto %q = %x", buf, got)
	}
	if got, _ := appendJoinKey(buf[:0], []value.Value{value.NewInt(1), value.NewString("a")}); !bytes.Equal(got, want) {
		t.Errorf("appendJoinKey onto a reused buffer = %x, want %x", got, want)
	}
}

// joinRowsThreeWays joins left and right on the key columns lk = rk (plus an
// optional residual over the concatenated row) through NestedLoopJoin over
// the conjunction of '=', the row HashJoin and VectorizedHashJoin. probe, when
// not nil, is the vectorized join's probe side in place of left's rows, the
// same rows in other vectors.
func joinRowsThreeWays(t testing.TB, cols []ColumnInfo, left, right []Row, lk, rk []int, residual expr.Expr, probe Operator) (nlj, hj, vj []Row) {
	t.Helper()
	pred := residual
	for i := range lk {
		pred = expr.And(expr.Eq(expr.NewColumn(lk[i], "l"), expr.NewColumn(len(cols)+rk[i], "r")), pred)
	}
	nlj = drain(t, NewNestedLoopJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), pred))
	h, err := NewHashJoin(NewValuesScan(cols, left), NewValuesScan(cols, right), lk, rk, residual)
	if err != nil {
		t.Fatal(err)
	}
	hj = drain(t, h)
	if probe == nil {
		probe = NewValuesScan(cols, left)
	}
	v, err := NewVectorizedHashJoin(probe, NewValuesScan(cols, right), lk, rk, residual)
	if err != nil {
		t.Fatal(err)
	}
	vj = drainVec(t, v)
	return nlj, hj, vj
}

// sortedJoinRows renders rows as a multiset: formatJoinRows, lines sorted.
func sortedJoinRows(rows []Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = formatJoinRows([]Row{r})
	}
	slices.Sort(lines)
	return fmt.Sprint(lines)
}

// TestHashJoinKeysFollowCompare: values that value.Compare calls equal join
// under both hash joins, on a single key and on a composite one, whichever
// side each is on. INT 2^53+1 = FLOAT 2^53 once joined on one column and not
// on two: the composite key kept the encoded key's integer suffix.
func TestHashJoinKeysFollowCompare(t *testing.T) {
	const big = int64(1) << 53
	pairs := []struct {
		name string
		a, b value.Value
	}{
		{"INT 2^53+1 = FLOAT 2^53", value.NewInt(big + 1), value.NewFloat(float64(big))},
		{"-0.0 = +0.0", value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0)},
		{"1 = 1.0", value.NewInt(1), value.NewFloat(1)},
		{"DATE 1000 = INT 1000", value.NewDate(1000), value.NewInt(1000)},
	}
	cols := []ColumnInfo{{Name: "k"}, {Name: "k2"}}
	for _, p := range pairs {
		for _, swap := range []bool{false, true} {
			a, b := p.a, p.b
			if swap {
				a, b = b, a
			}
			left := []Row{{a, value.NewInt(7)}}
			right := []Row{{b, value.NewFloat(7)}}
			for _, keys := range [][]int{{0}, {0, 1}} {
				name := fmt.Sprintf("%s, probe %v, %d key columns", p.name, a, len(keys))
				nlj, hj, vj := joinRowsThreeWays(t, cols, left, right, keys, keys, nil, nil)
				if len(nlj) != 1 {
					t.Fatalf("%s: nested loop join returned %d rows, want 1", name, len(nlj))
				}
				want := formatJoinRows(nlj)
				if got := formatJoinRows(hj); got != want {
					t.Errorf("%s: HashJoin returned\n%swant\n%s", name, got, want)
				}
				if got := formatJoinRows(vj); got != want {
					t.Errorf("%s: VectorizedHashJoin returned\n%swant\n%s", name, got, want)
				}
			}
		}
	}
}

// fuzzJoinPool is the fuzz target's key values: NULL, the zeros, the three
// kinds of one, integers beside 2^53 and 2^53 as a FLOAT, and strings with
// and without a NUL. NaN is left out: value.Compare calls it equal to every
// number, which no hash can follow.
var fuzzJoinPool = []value.Value{
	value.Null(),
	value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
	value.NewInt(1), value.NewFloat(1), value.NewDate(1),
	value.NewInt(1<<53 - 1), value.NewInt(1<<53 + 1), value.NewFloat(1 << 53),
	value.NewString(""), value.NewString("a\x00"), value.NewString("b"),
}

// Probe key encodings the fuzz target can pick.
const (
	fuzzProbeFlat = iota
	fuzzProbeConst
	fuzzProbeRLE
	fuzzProbeDict
)

// fuzzProbeBatches lays rows out as probe batches whose key columns are all
// encoded as enc: one flat batch; a Const batch per run of identical keys;
// one batch of RLE key columns; or one of Dict key columns. The other
// columns stay flat.
func fuzzProbeBatches(rows []Row, ncols int, keys []int, enc int) []*Batch {
	if len(rows) == 0 {
		return nil
	}
	same := func(a, b value.Value) bool { return fuzzValueID(a) == fuzzValueID(b) }
	flatCol := func(rows []Row, c int) *vector.Vector {
		vals := make([]value.Value, len(rows))
		for i, r := range rows {
			vals[i] = r[c]
		}
		return vector.NewFlat(vals)
	}
	batch := func(rows []Row, key func(rows []Row, c int) *vector.Vector) *Batch {
		vecs := make([]*vector.Vector, ncols)
		for c := range vecs {
			vecs[c] = flatCol(rows, c)
		}
		for _, c := range keys {
			vecs[c] = key(rows, c)
		}
		return NewBatchFromVectors(vecs)
	}
	switch enc {
	case fuzzProbeConst:
		var out []*Batch
		for lo := 0; lo < len(rows); {
			hi := lo + 1
			for hi < len(rows) && !slices.ContainsFunc(keys, func(c int) bool { return !same(rows[lo][c], rows[hi][c]) }) {
				hi++
			}
			out = append(out, batch(rows[lo:hi], func(rows []Row, c int) *vector.Vector {
				return vector.NewConst(rows[0][c], len(rows))
			}))
			lo = hi
		}
		return out
	case fuzzProbeRLE:
		return []*Batch{batch(rows, func(rows []Row, c int) *vector.Vector {
			var vals []value.Value
			var ends []int
			for i, r := range rows {
				if i > 0 && same(r[c], vals[len(vals)-1]) {
					ends[len(ends)-1] = i + 1
					continue
				}
				vals, ends = append(vals, r[c]), append(ends, i+1)
			}
			return vector.NewRLE(vals, ends)
		})}
	case fuzzProbeDict:
		return []*Batch{batch(rows, func(rows []Row, c int) *vector.Vector {
			var dict []value.Value
			codes := make([]uint32, len(rows))
			for i, r := range rows {
				j := slices.IndexFunc(dict, func(d value.Value) bool { return same(d, r[c]) })
				if j < 0 {
					j, dict = len(dict), append(dict, r[c])
				}
				codes[i] = uint32(j)
			}
			return vector.NewDict(dict, codes)
		})}
	}
	return []*Batch{batch(rows, flatCol)}
}

// fuzzValueID tells values apart bit for bit (-0.0 from +0.0, 1 from 1.0).
func fuzzValueID(v value.Value) string {
	return fmt.Sprintf("%d:%d:%x:%q", v.Kind, v.I, math.Float64bits(v.F), v.S)
}

// FuzzHashJoinMatchesNestedLoop holds both hash joins to the nested loop
// join over the conjunction of '=': the same rows as a multiset, over one
// or two key columns drawn from fuzzJoinPool, the probe key Flat, Const, RLE
// or Dict, with or without a residual. The vectorized join also emits each
// probe row's matches in build order.
//
// data[0] picks the key columns (bit 0), the probe encoding (bits 1-2) and
// the residual (bit 3); data[1] the row counts, probe (low nibble) then
// build (high nibble); every later byte one key value.
func FuzzHashJoinMatchesNestedLoop(f *testing.F) {
	f.Add([]byte{0x00, 0x33, 7, 8, 9, 8, 7, 6})
	f.Add([]byte{0x01, 0x22, 7, 3, 8, 4, 8, 3, 7, 4})
	f.Add([]byte{0x02, 0x44, 1, 1, 2, 0, 2, 1, 0, 2})
	f.Add([]byte{0x05, 0x34, 3, 4, 3, 4, 5, 5, 4, 3, 3, 4, 5, 4, 3, 4})
	f.Add([]byte{0x06, 0x55, 9, 10, 9, 11, 0, 9, 10, 11, 10, 0})
	f.Add([]byte{0x0f, 0x33, 6, 7, 8, 6, 7, 8, 8, 7, 6, 7, 8, 6})
	f.Add([]byte{0x0b, 0x63, 1, 2, 1, 2, 3, 4, 3, 4, 1, 2, 2, 1, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nkeys, enc, withResidual := 1+int(data[0]&1), int(data[0]>>1)&3, data[0]&8 != 0
		nprobe, nbuild := int(data[1]&0xf), int(data[1]>>4)
		vals := data[2:]
		// Columns: the key columns, then the row's ordinal.
		ncols := nkeys + 1
		rows := func(n int) []Row {
			var out []Row
			for i := 0; i < n && len(vals) >= nkeys; i++ {
				r := make(Row, ncols)
				for k := 0; k < nkeys; k++ {
					r[k] = fuzzJoinPool[int(vals[k])%len(fuzzJoinPool)]
				}
				r[nkeys] = value.NewInt(int64(i))
				vals = vals[nkeys:]
				out = append(out, r)
			}
			return out
		}
		probe, build := rows(nprobe), rows(nbuild)
		cols := make([]ColumnInfo, ncols)
		keys := make([]int, nkeys)
		for k := range keys {
			keys[k] = k
			cols[k] = ColumnInfo{Name: fmt.Sprintf("k%d", k)}
		}
		cols[nkeys] = ColumnInfo{Name: "ord", Kind: value.KindInt}
		var residual expr.Expr
		if withResidual {
			// The probe row's ordinal is at most the build row's.
			residual = expr.NewBinary(expr.OpLe, expr.NewColumn(nkeys, "ord"), expr.NewColumn(ncols+nkeys, "ord"))
		}
		src := &vecBatchSource{cols: cols, batches: fuzzProbeBatches(probe, ncols, keys, enc)}
		nlj, hj, vj := joinRowsThreeWays(t, cols, probe, build, keys, keys, residual, src)
		want := sortedJoinRows(nlj)
		if got := sortedJoinRows(hj); got != want {
			t.Fatalf("HashJoin returned %s, nested loop join %s", got, want)
		}
		if got := sortedJoinRows(vj); got != want {
			t.Fatalf("VectorizedHashJoin returned %s, nested loop join %s", got, want)
		}
		last := map[int64]int64{}
		for _, r := range vj {
			p, b := r[nkeys].Int(), r[ncols+nkeys].Int()
			if prev, ok := last[p]; ok && b <= prev {
				t.Fatalf("probe row %d matched build row %d after build row %d", p, b, prev)
			}
			last[p] = b
		}
	})
}

// TestJoinBuildAllocations pins the join build's allocations: a build of
// 100,000 rows over 50,000 distinct keys allocates when its slices double,
// O(log rows) times, and nothing per key or per batch.
func TestJoinBuildAllocations(t *testing.T) {
	const rows, keys = 100000, 50000
	schema := []ColumnInfo{{Name: "k", Kind: value.KindInt}, {Name: "x", Kind: value.KindFloat}, {Name: "s", Kind: value.KindString}}
	var batches []*Batch
	for lo := 0; lo < rows; lo += DefaultBatchSize {
		b := NewBatch(len(schema), DefaultBatchSize)
		for i := lo; i < min(lo+DefaultBatchSize, rows); i++ {
			b.AppendRow(Row{value.NewInt(int64(i % keys)), value.NewFloat(float64(i)), value.NewString("s")})
		}
		batches = append(batches, b)
	}
	var tbl *joinTable
	allocs := testing.AllocsPerRun(3, func() {
		tbl = newJoinTable(len(schema), []int{0})
		for _, b := range batches {
			tbl.consumeBatch(b)
		}
	})
	if tbl.numRows() != rows || tbl.len() != keys {
		t.Fatalf("%d rows over %d keys, want %d over %d", tbl.numRows(), tbl.len(), rows, keys)
	}
	// The key index's doublings (from 64) and 7 rehashes, the chains', and
	// those of the rows' columns and links (from one batch): about 100. A
	// heap object per key would add 50,000, one per batch 98.
	if allocs > 150 {
		t.Fatalf("%v allocations for %d rows, want O(log rows)", allocs, rows)
	}
	t.Logf("%v allocations for %d rows over %d keys", allocs, rows, keys)
}
