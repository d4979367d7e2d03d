package exec

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/expr"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// bandKey is the inner key, or a bound, for the integer x under a key kind:
// FLOAT keys are halves, so some fall between two integer bounds, and STRING
// keys are zero-padded so their order follows x.
func bandKey(kind value.Kind, x int64) value.Value {
	switch kind {
	case value.KindInt:
		return value.NewInt(x)
	case value.KindDate:
		return value.NewDate(x)
	case value.KindFloat:
		return value.NewFloat(float64(x) / 2)
	default:
		return value.NewString(fmt.Sprintf("%05d", x))
	}
}

// bandCase is one random band join: an inner table clustered on a key of one
// kind, an outer list of ranges over it and the join's spec and residual.
type bandCase struct {
	pager *storage.Pager
	build func() *IndexNestedLoopJoin
	desc  string
}

// newBandCase draws a case from rng. The inner table holds duplicate and
// NULL keys and string payloads wide enough that it spans many leaves. The
// outer ranges run in segments of one shape — adjacent, gapped, overlapping,
// descending, repeated equality keys or random, some empty — with NULL
// bounds sprinkled in, as (lo, hi), as one equality column, or as the
// c-table band (f, c) probed by f BETWEEN lo AND lo + c - 1; bounds are of the
// key's kind, or of another (INT against FLOAT or STRING, non-integral FLOAT
// against INT).
func newBandCase(t *testing.T, rng *rand.Rand) bandCase {
	t.Helper()
	kind := []value.Kind{value.KindInt, value.KindDate, value.KindFloat, value.KindString}[rng.Intn(4)]
	pager := storage.NewPager(0)
	c := catalog.New(pager)
	inner, err := c.CreateTable("inner", []catalog.Column{
		{Name: "k", Kind: kind},
		{Name: "w", Kind: value.KindInt},
		{Name: "s", Kind: value.KindString},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	nInner := rng.Intn(3000)
	domain := int64(1 + rng.Intn(nInner+1))
	pad := rng.Intn(200)
	rows := make([][]value.Value, nInner)
	for i := range rows {
		k := bandKey(kind, rng.Int63n(domain))
		if rng.Intn(30) == 0 {
			k = value.Null()
		}
		rows[i] = []value.Value{k, value.NewInt(rng.Int63n(100)), value.NewString(strings.Repeat("x", rng.Intn(pad+1)))}
	}
	if err := inner.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}

	// 0: (lo, hi); 1: equality; 2: c-table band (f, c); 3: one side open.
	shape := []int{0, 0, 0, 0, 1, 1, 2, 2, 2, 3}[rng.Intn(10)]
	boundKind := kind
	switch r := rng.Intn(6); {
	case r == 0 && kind != value.KindString:
		boundKind = value.KindFloat
	case r == 1 && kind != value.KindInt:
		boundKind = value.KindInt
	}
	bound := func(x int64) value.Value {
		if boundKind == value.KindFloat && kind != value.KindFloat {
			return value.NewFloat(float64(x) + float64(rng.Intn(2))/2)
		}
		return bandKey(boundKind, x)
	}
	var outer []Row
	lo, hi := rng.Int63n(domain), int64(0)
	nOuter := 1 + rng.Intn(1200)
	if shape == 3 {
		nOuter = 1 + rng.Intn(40) // every range runs to an end of the table
	}
	for len(outer) < nOuter {
		pattern, run := rng.Intn(6), 1+rng.Intn(60)
		for ; run > 0; run-- {
			switch pattern {
			case 0: // adjacent
				lo = hi + 1
			case 1: // gapped
				lo = hi + 2 + rng.Int63n(4)
			case 2: // overlapping
				lo = hi - rng.Int63n(3)
			case 3: // descending
				lo -= 1 + rng.Int63n(8)
			case 4: // equality, keys repeating
				lo = hi + rng.Int63n(2)
			default:
				lo = rng.Int63n(domain+4) - 2
			}
			switch {
			case pattern == 4 || shape == 1:
				hi = lo
			case rng.Intn(20) == 0:
				hi = lo - 1 // empty
			default:
				hi = lo + rng.Int63n(4)
			}
			row := Row{bound(lo), bound(hi), value.NewInt(rng.Int63n(10))}
			if shape == 2 {
				row[1] = value.NewInt(hi - lo + 1)
			}
			if rng.Intn(25) == 0 {
				row[rng.Intn(2)] = value.Null()
			}
			outer = append(outer, row)
		}
	}

	spec := InnerSeekSpec{Table: inner, LoIncl: true, HiIncl: true}
	col := func(i int) expr.Expr { return expr.NewColumn(i, "") }
	switch shape {
	case 0, 3:
		spec.LoExprs, spec.HiExprs = []expr.Expr{col(0)}, []expr.Expr{col(1)}
		spec.LoIncl, spec.HiIncl = rng.Intn(6) > 0, rng.Intn(6) > 0
		if shape == 3 {
			if rng.Intn(2) == 0 {
				spec.LoExprs = nil
			} else {
				spec.HiExprs = nil
			}
		}
	case 1:
		spec.LoExprs, spec.HiExprs = []expr.Expr{col(0)}, []expr.Expr{col(0)}
	case 2:
		spec.LoExprs = []expr.Expr{col(0)}
		spec.HiExprs = []expr.Expr{expr.NewBinary(expr.OpSub,
			expr.NewBinary(expr.OpAdd, col(0), col(1)), expr.NewConst(value.NewInt(1)))}
	}
	// Inner columns: any subset in any order, the key included or not.
	if rng.Intn(5) > 0 {
		spec.Cols = rng.Perm(3)[:rng.Intn(4)]
	}
	var residual expr.Expr
	filterOuter := rng.Intn(3) == 0
	switch r := rng.Intn(3); {
	case r == 0:
		residual = expr.NewBinary(expr.OpLt, col(2), expr.NewConst(value.NewInt(rng.Int63n(10))))
	case r == 1 && len(spec.Cols) > 0:
		// A predicate on the first inner column.
		residual = &expr.IsNull{E: col(3), Negate: rng.Intn(2) == 0}
	}
	outerCols := []ColumnInfo{{Name: "lo", Kind: boundKind}, {Name: "hi", Kind: boundKind}, {Name: "z", Kind: value.KindInt}}
	build := func() *IndexNestedLoopJoin {
		var src Operator = NewValuesScan(outerCols, outer)
		if filterOuter {
			src = NewFilter(src, expr.NewBinary(expr.OpGt, col(2), expr.NewConst(value.NewInt(2))))
		}
		j, err := NewIndexNestedLoopJoin(src, spec, residual)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	desc := fmt.Sprintf("key %v, bounds %v, shape %d, incl %v/%v, cols %v, %d inner rows over %d keys, %d outer rows, filtered %v, residual %v",
		kind, boundKind, shape, spec.LoIncl, spec.HiIncl, spec.Cols, nInner, domain, len(outer), filterOuter, residual != nil)
	return bandCase{pager: pager, build: build, desc: desc}
}

// TestBandJoinBatchMatchesRows holds the batch band join to its row
// reference over 200 random cases: the same rows in the same order from
// NextBatch as from Next, and the same cold page reads — sequential and
// random alike — under 8-page, 32-page and unbounded buffer pools, so
// coalescing chained ranges into one seek reads exactly the leaves the
// per-row seeks read, in their order.
func TestBandJoinBatchMatchesRows(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		bc := newBandCase(t, rand.New(rand.NewSource(seed)))
		want, err := Drain(nil, bc.build())
		if err != nil {
			t.Fatalf("seed %d (%s): row pull: %v", seed, bc.desc, err)
		}
		got, err := DrainBatches(nil, bc.build())
		if err != nil {
			t.Fatalf("seed %d (%s): batch pull: %v", seed, bc.desc, err)
		}
		if g, w := formatJoinRows(got), formatJoinRows(want); g != w {
			t.Fatalf("seed %d (%s): batch pull returned %d rows, row pull %d:\n%s\nvs\n%s",
				seed, bc.desc, len(got), len(want), clipText(g), clipText(w))
		}
		for _, pool := range []int{8, 32, 0} {
			bc.pager.SetCapacity(pool)
			cold := func(pull func(context.Context, Operator) ([]Row, error)) storage.IOStats {
				bc.pager.ResetCache()
				before := bc.pager.Stats()
				if _, err := pull(nil, bc.build()); err != nil {
					t.Fatal(err)
				}
				io := bc.pager.Stats().Sub(before)
				return storage.IOStats{PageReads: io.PageReads, SeqReads: io.SeqReads, RandReads: io.RandReads}
			}
			if rowIO, batchIO := cold(Drain), cold(DrainBatches); rowIO != batchIO {
				t.Fatalf("seed %d (%s), %d-page pool: row pull read %+v, batch pull %+v",
					seed, bc.desc, pool, rowIO, batchIO)
			}
		}
	}
}

// clipText shortens a long rendering for a failure message.
func clipText(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "..."
	}
	return s
}

// TestBandJoinChainPastTheLastLeaf: a chain of adjacent ranges that runs on
// past the inner table's largest key. One coalesced seek covers the chain
// and stops in the last leaf; each per-row seek after the one that reaches
// it begins in that leaf too, which ends the chain, rather than being
// positioned afresh. So the two pulls read the same pages under a pool too
// small to keep the root, and each positions a range once: from the leaf the
// bulk-loaded table's model predicts, with no descent.
func TestBandJoinChainPastTheLastLeaf(t *testing.T) {
	pager := storage.NewPager(0)
	inner, err := catalog.New(pager).CreateTable("inner", []catalog.Column{
		{Name: "k", Kind: value.KindInt},
		{Name: "s", Kind: value.KindString},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 4000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewString(strings.Repeat("x", 60))}
	}
	if err := inner.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	var outer []Row
	for lo := int64(3000); lo < 5000; lo += 2 {
		outer = append(outer, Row{value.NewInt(lo), value.NewInt(lo + 1)})
	}
	col := func(i int) expr.Expr { return expr.NewColumn(i, "") }
	build := func() *IndexNestedLoopJoin {
		j, err := NewIndexNestedLoopJoin(NewValuesScan([]ColumnInfo{{Name: "lo", Kind: value.KindInt}, {Name: "hi", Kind: value.KindInt}}, outer),
			InnerSeekSpec{Table: inner, LoExprs: []expr.Expr{col(0)}, HiExprs: []expr.Expr{col(1)}, LoIncl: true, HiIncl: true, Cols: []int{0}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	pager.SetCapacity(4)
	type run struct {
		io     storage.IOStats
		rows   int64
		starts seekCounts
	}
	cold := func(pull func(context.Context, Operator) ([]Row, error)) run {
		pager.ResetCache()
		before := pager.Stats()
		j := build()
		got, err := pull(nil, j)
		if err != nil {
			t.Fatal(err)
		}
		io := pager.Stats().Sub(before)
		starts := j.counts
		starts.seeks = 0 // the row pull seeks per outer row, the batch pull per chain
		return run{storage.IOStats{PageReads: io.PageReads, SeqReads: io.SeqReads, RandReads: io.RandReads}, int64(len(got)), starts}
	}
	rowRun, batchRun := cold(Drain), cold(DrainBatches)
	if rowRun.rows != 1000 || rowRun != batchRun || rowRun.starts.predicted != 1 || rowRun.starts.descents != 0 {
		t.Fatalf("row pull %+v, batch pull %+v; want 1,000 rows, one predicted start, no descent and the same reads", rowRun, batchRun)
	}
}
