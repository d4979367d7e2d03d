package expr

import (
	"fmt"

	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// This file implements vectorized (batch-at-a-time) expression evaluation in
// the style of MonetDB/X100, extended with encoding-aware kernels: columns
// arrive as vector.Vector values that may be Flat, Const, RLE or
// dictionary-encoded, and the kernels dispatch on the encoding so that
// predicates and scalar functions are evaluated once per distinct stored
// value (per run, per dictionary entry, or once outright for a constant)
// instead of once per row.
//
// Conventions shared with the exec package's Batch:
//
//   - cols is a column-major batch: cols[c] is the vector of column c and
//     every vector has the same logical length;
//   - n is the row count (needed when cols is empty);
//   - sel is an optional selection vector of physical row indices, in
//     ascending order; nil means all n rows are live;
//   - result vectors are physically aligned with cols: position i corresponds
//     to physical row i. For Flat results, entries outside the selection are
//     unspecified; compressed results are valid everywhere by construction.
//
// Column references evaluate to the input vector itself (zero copy, encoding
// preserved), which is why callers must treat result vectors as read-only.

// forEachSel visits every live physical row index.
func forEachSel(sel []int, n int, fn func(i int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	for _, i := range sel {
		fn(i)
	}
}

// EvalVector evaluates an expression over a column-major batch, returning a
// vector physically aligned with the input columns. Expressions over a single
// compressed column preserve the column's encoding (the predicate or scalar
// function runs once per distinct stored value); everything else decompresses
// its operands lazily and produces a Flat result.
func EvalVector(e Expr, cols []*vector.Vector, sel []int, n int) (*vector.Vector, error) {
	switch t := e.(type) {
	case *Column:
		if t.Index < 0 || t.Index >= len(cols) {
			return nil, fmt.Errorf("expr: column ordinal %d out of range (batch has %d columns)", t.Index, len(cols))
		}
		return cols[t.Index], nil
	case *Const:
		return vector.NewConst(t.Val, n), nil
	case nil:
		return nil, fmt.Errorf("expr: cannot evaluate nil expression vector")
	}
	// Compression-preserving kernel: an expression that references exactly one
	// column whose vector is compressed is evaluated once per distinct stored
	// value via Map — a comparison against a dictionary vector, for example,
	// runs once per dictionary entry and keeps the codes untouched.
	if ord, ok := singleColumnExpr(e, len(cols)); ok && cols[ord].Encoding() != vector.Flat && perValueWorthwhile(cols[ord], sel, n) {
		scratch := make([]value.Value, len(cols))
		return cols[ord].Map(func(x value.Value) (value.Value, error) {
			scratch[ord] = x
			return e.Eval(scratch)
		}, sel)
	}
	switch t := e.(type) {
	case *Binary:
		return evalBinaryVector(t, cols, sel, n)
	case *Not:
		in, err := evalFlat(t.E, cols, sel, n)
		if err != nil {
			return nil, err
		}
		out := make([]value.Value, n)
		forEachSel(sel, n, func(i int) {
			v := in[i]
			if v.IsNull() {
				out[i] = value.Null()
			} else {
				out[i] = value.NewBool(!v.Bool())
			}
		})
		return vector.NewFlat(out), nil
	case *Between:
		ev, err := evalFlat(t.E, cols, sel, n)
		if err != nil {
			return nil, err
		}
		lo, err := evalFlat(t.Lo, cols, sel, n)
		if err != nil {
			return nil, err
		}
		hi, err := evalFlat(t.Hi, cols, sel, n)
		if err != nil {
			return nil, err
		}
		out := make([]value.Value, n)
		forEachSel(sel, n, func(i int) {
			v, l, h := ev[i], lo[i], hi[i]
			if v.IsNull() || l.IsNull() || h.IsNull() {
				out[i] = value.Null()
			} else {
				out[i] = value.NewBool(value.Compare(v, l) >= 0 && value.Compare(v, h) <= 0)
			}
		})
		return vector.NewFlat(out), nil
	case *IsNull:
		in, err := evalFlat(t.E, cols, sel, n)
		if err != nil {
			return nil, err
		}
		out := make([]value.Value, n)
		forEachSel(sel, n, func(i int) {
			out[i] = value.NewBool(in[i].IsNull() != t.Negate)
		})
		return vector.NewFlat(out), nil
	case *Coalesce:
		out := make([]value.Value, n)
		for _, a := range t.Args {
			in, err := evalFlat(a, cols, sel, n)
			if err != nil {
				return nil, err
			}
			forEachSel(sel, n, func(i int) {
				if out[i].IsNull() {
					out[i] = in[i]
				}
			})
		}
		return vector.NewFlat(out), nil
	case *InList:
		ev, err := evalFlat(t.E, cols, sel, n)
		if err != nil {
			return nil, err
		}
		items := make([][]value.Value, len(t.List))
		for j, item := range t.List {
			iv, err := evalFlat(item, cols, sel, n)
			if err != nil {
				return nil, err
			}
			items[j] = iv
		}
		out := make([]value.Value, n)
		forEachSel(sel, n, func(i int) {
			v := ev[i]
			if v.IsNull() {
				out[i] = value.Null()
				return
			}
			res := value.NewBool(false)
			for _, iv := range items {
				if !iv[i].IsNull() && value.Compare(v, iv[i]) == 0 {
					res = value.NewBool(true)
					break
				}
			}
			out[i] = res
		})
		return vector.NewFlat(out), nil
	default:
		// Unknown expression type: fall back to row-at-a-time evaluation by
		// gathering each live row. Correct for any Expr, just not vectorized.
		flats := make([][]value.Value, len(cols))
		for c := range cols {
			flats[c] = cols[c].Flat()
		}
		out := make([]value.Value, n)
		row := make([]value.Value, len(cols))
		var evalErr error
		forEachSel(sel, n, func(i int) {
			if evalErr != nil {
				return
			}
			for c := range flats {
				row[c] = flats[c][i]
			}
			v, err := e.Eval(row)
			if err != nil {
				evalErr = err
				return
			}
			out[i] = v
		})
		if evalErr != nil {
			return nil, evalErr
		}
		return vector.NewFlat(out), nil
	}
}

// evalFlat evaluates a sub-expression and returns its decompressed per-row
// values (the form the generic flat kernels consume).
func evalFlat(e Expr, cols []*vector.Vector, sel []int, n int) ([]value.Value, error) {
	v, err := EvalVector(e, cols, sel, n)
	if err != nil {
		return nil, err
	}
	return v.Flat(), nil
}

// singleColumnExpr reports whether e references exactly one column ordinal
// (in range) and is built only from node types this package can walk; ord is
// that column. Pure-constant expressions return false.
func singleColumnExpr(e Expr, ncols int) (ord int, ok bool) {
	ord = -1
	if !walkSingleColumn(e, &ord) {
		return -1, false
	}
	return ord, ord >= 0 && ord < ncols
}

func walkSingleColumn(e Expr, ord *int) bool {
	switch t := e.(type) {
	case *Column:
		if *ord >= 0 && *ord != t.Index {
			return false
		}
		*ord = t.Index
		return true
	case *Const:
		return true
	case *Binary:
		return walkSingleColumn(t.L, ord) && walkSingleColumn(t.R, ord)
	case *Not:
		return walkSingleColumn(t.E, ord)
	case *Between:
		return walkSingleColumn(t.E, ord) && walkSingleColumn(t.Lo, ord) && walkSingleColumn(t.Hi, ord)
	case *IsNull:
		return walkSingleColumn(t.E, ord)
	case *Coalesce:
		for _, a := range t.Args {
			if !walkSingleColumn(a, ord) {
				return false
			}
		}
		return true
	case *InList:
		if !walkSingleColumn(t.E, ord) {
			return false
		}
		for _, item := range t.List {
			if !walkSingleColumn(item, ord) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// evalBinaryVector evaluates arithmetic, comparison and logical binary
// operators over vectors. Logical AND/OR use three-valued SQL logic; both
// sides are evaluated in full (expressions are side-effect free, so skipping
// the row-at-a-time short circuit is safe).
func evalBinaryVector(b *Binary, cols []*vector.Vector, sel []int, n int) (*vector.Vector, error) {
	l, err := evalFlat(b.L, cols, sel, n)
	if err != nil {
		return nil, err
	}
	r, err := evalFlat(b.R, cols, sel, n)
	if err != nil {
		return nil, err
	}
	out := make([]value.Value, n)
	switch b.Op {
	case OpAdd:
		forEachSel(sel, n, func(i int) { out[i] = value.Add(l[i], r[i]) })
	case OpSub:
		forEachSel(sel, n, func(i int) { out[i] = value.Sub(l[i], r[i]) })
	case OpMul:
		forEachSel(sel, n, func(i int) { out[i] = value.Mul(l[i], r[i]) })
	case OpDiv:
		forEachSel(sel, n, func(i int) { out[i] = value.Div(l[i], r[i]) })
	case OpAnd:
		// Mirrors the row-at-a-time Eval exactly (including its left-biased
		// NULL handling): a false left short-circuits to false; otherwise a
		// NULL on either side yields NULL.
		forEachSel(sel, n, func(i int) {
			lv, rv := l[i], r[i]
			switch {
			case !lv.IsNull() && !lv.Bool():
				out[i] = value.NewBool(false)
			case lv.IsNull() || rv.IsNull():
				out[i] = value.Null()
			default:
				out[i] = value.NewBool(lv.Bool() && rv.Bool())
			}
		})
	case OpOr:
		forEachSel(sel, n, func(i int) {
			lv, rv := l[i], r[i]
			switch {
			case !lv.IsNull() && lv.Bool():
				out[i] = value.NewBool(true)
			case lv.IsNull() || rv.IsNull():
				out[i] = value.Null()
			default:
				out[i] = value.NewBool(lv.Bool() || rv.Bool())
			}
		})
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		forEachSel(sel, n, func(i int) {
			lv, rv := l[i], r[i]
			if lv.IsNull() || rv.IsNull() {
				out[i] = value.Null()
				return
			}
			out[i] = value.NewBool(cmpSatisfies(b.Op, value.Compare(lv, rv)))
		})
	default:
		return nil, fmt.Errorf("expr: unknown operator %d", b.Op)
	}
	return vector.NewFlat(out), nil
}

// cmpSatisfies reports whether a three-way comparison result satisfies a
// comparison operator.
func cmpSatisfies(op BinaryOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}

// SelectVector filters a selection vector through a predicate: it returns the
// physical indices of the live rows for which the predicate is TRUE (NULL and
// FALSE both drop the row, matching EvalBool). A nil predicate keeps every
// live row. The returned slice is freshly allocated unless it is the input
// sel itself. On compressed columns the kernels do work proportional to the
// compressed size: a predicate over an RLE vector accepts or rejects whole
// runs (one evaluation per run), a Dict vector evaluates the predicate once
// per dictionary entry and then tests codes, and a Const vector decides once
// for the whole batch.
func SelectVector(pred Expr, cols []*vector.Vector, sel []int, n int) ([]int, error) {
	if pred == nil {
		if sel != nil {
			return sel, nil
		}
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	switch t := pred.(type) {
	case *Binary:
		if t.Op == OpAnd {
			// Conjuncts narrow the selection progressively: each kernel only
			// inspects rows that survived the previous one.
			s, err := SelectVector(t.L, cols, sel, n)
			if err != nil {
				return nil, err
			}
			if len(s) == 0 {
				return s, nil
			}
			return SelectVector(t.R, cols, s, n)
		}
		if t.Op.IsComparison() {
			if out, ok, err := selectCmpFast(t, cols, sel, n); ok || err != nil {
				return out, err
			}
		}
	case *Between:
		if out, ok, err := selectBetweenFast(t, cols, sel, n); ok || err != nil {
			return out, err
		}
	}
	// Generic path: evaluate the predicate vector and keep the TRUE rows.
	// selectWhere exploits the result's encoding, so a predicate that
	// preserved compression through EvalVector still selects run-wise.
	res, err := EvalVector(pred, cols, sel, n)
	if err != nil {
		return nil, err
	}
	return selectWhere(res, sel, n, func(v value.Value) bool {
		return !v.IsNull() && v.Bool()
	}), nil
}

// selLen returns the number of live rows.
func selLen(sel []int, n int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// perValueWorthwhile reports whether evaluating once per distinct stored
// value beats evaluating once per live row. RLE and Const windows always
// have at most as many distinct stored values as rows, but a Dict vector
// shares its segment-wide dictionary across every batch window — when the
// dictionary outnumbers the window's live rows, per-entry evaluation would
// be a pessimization and the flat kernels win.
func perValueWorthwhile(v *vector.Vector, sel []int, n int) bool {
	if v.Encoding() != vector.Dict {
		return true
	}
	return len(v.DictValues()) <= selLen(sel, n)
}

// selectWhere gathers the live rows whose value in v satisfies pass,
// dispatching on v's encoding: Const decides once, RLE once per run, Dict
// once per dictionary entry, Flat once per live row.
func selectWhere(v *vector.Vector, sel []int, n int, pass func(value.Value) bool) []int {
	switch v.Encoding() {
	case vector.Const:
		if !pass(v.ConstValue()) {
			return []int{}
		}
		if sel != nil {
			return sel
		}
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	case vector.RLE:
		runVals, ends := v.RunValues(), v.RunEnds()
		passRun := make([]bool, len(runVals))
		for r, rv := range runVals {
			passRun[r] = pass(rv)
		}
		out := make([]int, 0, selLen(sel, n))
		if sel == nil {
			start := 0
			for r, end := range ends {
				if passRun[r] {
					for i := start; i < end; i++ {
						out = append(out, i)
					}
				}
				start = end
			}
			return out
		}
		r := 0
		for _, i := range sel {
			for ends[r] <= i {
				r++
			}
			if passRun[r] {
				out = append(out, i)
			}
		}
		return out
	case vector.Dict:
		dict, codes := v.DictValues(), v.Codes()
		out := make([]int, 0, selLen(sel, n))
		if len(dict) > selLen(sel, n) {
			// The segment-wide dictionary outnumbers this window's live rows:
			// testing each live row's entry directly is cheaper than
			// pre-evaluating the whole dictionary.
			forEachSel(sel, n, func(i int) {
				if pass(dict[codes[i]]) {
					out = append(out, i)
				}
			})
			return out
		}
		passCode := make([]bool, len(dict))
		for c, dv := range dict {
			passCode[c] = pass(dv)
		}
		forEachSel(sel, n, func(i int) {
			if passCode[codes[i]] {
				out = append(out, i)
			}
		})
		return out
	default:
		vals := v.Flat()
		out := make([]int, 0, selLen(sel, n))
		forEachSel(sel, n, func(i int) {
			if pass(vals[i]) {
				out = append(out, i)
			}
		})
		return out
	}
}

// colConst decomposes a binary comparison into (column, constant, flipped) if
// it has the shape col OP const or const OP col.
func colConst(b *Binary) (col *Column, c value.Value, flipped, ok bool) {
	if l, lok := b.L.(*Column); lok {
		if r, rok := b.R.(*Const); rok {
			return l, r.Val, false, true
		}
	}
	if l, lok := b.L.(*Const); lok {
		if r, rok := b.R.(*Column); rok {
			return r, l.Val, true, true
		}
	}
	return nil, value.Value{}, false, false
}

// flipOp mirrors a comparison operator (for const OP col rewritten as
// col flip(OP) const).
func flipOp(op BinaryOp) BinaryOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default: // OpEq, OpNe are symmetric
		return op
	}
}

// intLike reports whether the kind compares through the I field.
func intLike(k value.Kind) bool {
	return k == value.KindInt || k == value.KindDate || k == value.KindBool
}

// selectCmpFast is the typed kernel for col OP const comparisons — the common
// case for pushed-down scan predicates. ok is false when the predicate does
// not have that shape. Compressed columns route through selectWhere (one
// comparison per distinct stored value); Flat columns use the typed
// int/float loops.
func selectCmpFast(b *Binary, cols []*vector.Vector, sel []int, n int) ([]int, bool, error) {
	col, c, flipped, ok := colConst(b)
	if !ok {
		return nil, false, nil
	}
	if col.Index < 0 || col.Index >= len(cols) {
		return nil, true, fmt.Errorf("expr: column ordinal %d out of range (batch has %d columns)", col.Index, len(cols))
	}
	op := b.Op
	if flipped {
		op = flipOp(op)
	}
	vec := cols[col.Index]
	if c.IsNull() {
		return []int{}, true, nil // NULL comparison never passes
	}
	if vec.Encoding() != vector.Flat {
		return selectWhere(vec, sel, n, func(v value.Value) bool {
			return !v.IsNull() && cmpSatisfies(op, value.Compare(v, c))
		}), true, nil
	}
	vals := vec.Flat()
	out := make([]int, 0, selLen(sel, n))
	if intLike(c.Kind) || c.Kind == value.KindFloat {
		// Numeric fast path: integer-family pairs compare through the I
		// field, any other numeric pair through float64 — both exactly as
		// value.Compare does, without its dispatch.
		ci, cf, cInt := c.I, c.Float(), intLike(c.Kind)
		forEachSel(sel, n, func(i int) {
			v := vals[i]
			var cmp int
			switch {
			case cInt && intLike(v.Kind):
				switch {
				case v.I < ci:
					cmp = -1
				case v.I > ci:
					cmp = 1
				}
			case v.Kind == value.KindFloat || (!cInt && intLike(v.Kind)):
				vf := v.Float()
				switch {
				case vf < cf:
					cmp = -1
				case vf > cf:
					cmp = 1
				}
			case v.Kind == value.KindNull:
				return
			default:
				cmp = value.Compare(v, c)
			}
			if cmpSatisfies(op, cmp) {
				out = append(out, i)
			}
		})
		return out, true, nil
	}
	forEachSel(sel, n, func(i int) {
		v := vals[i]
		if v.IsNull() {
			return
		}
		if cmpSatisfies(op, value.Compare(v, c)) {
			out = append(out, i)
		}
	})
	return out, true, nil
}

// selectBetweenFast is the typed kernel for col BETWEEN const AND const.
func selectBetweenFast(b *Between, cols []*vector.Vector, sel []int, n int) ([]int, bool, error) {
	col, colOK := b.E.(*Column)
	lo, loOK := b.Lo.(*Const)
	hi, hiOK := b.Hi.(*Const)
	if !colOK || !loOK || !hiOK {
		return nil, false, nil
	}
	if col.Index < 0 || col.Index >= len(cols) {
		return nil, true, fmt.Errorf("expr: column ordinal %d out of range (batch has %d columns)", col.Index, len(cols))
	}
	vec := cols[col.Index]
	if lo.Val.IsNull() || hi.Val.IsNull() {
		return []int{}, true, nil
	}
	if vec.Encoding() != vector.Flat {
		return selectWhere(vec, sel, n, func(v value.Value) bool {
			return !v.IsNull() && value.Compare(v, lo.Val) >= 0 && value.Compare(v, hi.Val) <= 0
		}), true, nil
	}
	vals := vec.Flat()
	out := make([]int, 0, selLen(sel, n))
	if intLike(lo.Val.Kind) && intLike(hi.Val.Kind) {
		loI, hiI := lo.Val.I, hi.Val.I
		forEachSel(sel, n, func(i int) {
			v := vals[i]
			if intLike(v.Kind) {
				if v.I >= loI && v.I <= hiI {
					out = append(out, i)
				}
				return
			}
			if v.Kind == value.KindNull {
				return
			}
			if value.Compare(v, lo.Val) >= 0 && value.Compare(v, hi.Val) <= 0 {
				out = append(out, i)
			}
		})
		return out, true, nil
	}
	forEachSel(sel, n, func(i int) {
		v := vals[i]
		if v.IsNull() {
			return
		}
		if value.Compare(v, lo.Val) >= 0 && value.Compare(v, hi.Val) <= 0 {
			out = append(out, i)
		}
	})
	return out, true, nil
}
