package value

import "math"

// Range bounds on a typed key column. A key column holds only NULL and values
// of its declared kind (CoerceKeyValue), and stored keys of one kind order by
// bytes, but a seek bound arrives as any value: `k > 3.5` on an INT column, a
// FLOAT outer column probing an INT index. CoerceKeyBound restates such a bound
// in the column's own kind, under Compare's order — the order every residual
// predicate evaluates — so the seek returns exactly the rows a scan plus filter
// would.

// BoundFit says how a bound value maps onto a key column's kind.
type BoundFit uint8

const (
	// BoundPoint: the returned value is the only one of the kind that compares
	// equal to the bound value, so it can also stand for it inside a composite
	// prefix. Inclusivity is unchanged.
	BoundPoint BoundFit = iota
	// BoundNearest: the returned value and inclusivity are the tightest bound
	// of the kind; no single value of the kind stands for the original.
	BoundNearest
	// BoundAll: every value of the kind, NULL included, satisfies the bound.
	BoundAll
	// BoundNone: no value of the kind, not even NULL, satisfies it.
	BoundNone
)

// CoerceKeyBound converts one side of a range over a key column of kind k —
// x >= v or x > v (lower), x <= v or x < v (upper), by Compare, which orders
// NULL lowest — into the equivalent bound of kind k: `x > 3.5` on an INT
// column becomes x >= 4, `x < 3.5` becomes x <= 3, an int bound on a FLOAT
// column becomes its float64, a number against a STRING column (Compare orders
// every string above every number) bounds just above NULL, a string against a
// numeric column leaves the side open or empty. A float against an integer
// column follows Compare through float64: from ±2^53 on several integers equal
// one float, and the bound lands on the first or last of them. A NaN bound,
// which Compare calls equal to every number, is reported BoundAll. The same-kind
// path returns v itself and allocates nothing.
func CoerceKeyBound(v Value, k Kind, upper, incl bool) (out Value, outIncl bool, fit BoundFit) {
	switch {
	case v.Kind == KindNull || v.Kind == k:
		return v, incl, BoundPoint
	case k == KindNull || numericKind(k) && v.Kind == KindString:
		// Everything the column holds sorts below v.
		if upper {
			return v, incl, BoundAll
		}
		return v, incl, BoundNone
	case k == KindString:
		// Every string sorts above the number v, and NULL below it.
		return Null(), upper, BoundNearest
	case k == KindFloat:
		return NewFloat(float64(v.I)), incl, BoundPoint
	case v.Kind != KindFloat:
		return Value{Kind: k, I: v.I}, incl, BoundPoint
	}
	f := v.F
	if f != f {
		return v, incl, BoundAll
	}
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return Value{Kind: k, I: int64(f)}, incl, BoundPoint
	}
	var i int64
	var ok bool
	if upper {
		if !incl {
			f = math.Nextafter(f, math.Inf(-1))
		}
		i, ok = lastIntAtOrBelow(f)
	} else {
		if !incl {
			f = math.Nextafter(f, math.Inf(1))
		}
		i, ok = firstIntAtOrAbove(f)
	}
	if !ok {
		if upper {
			// Not even MinInt64 is below f; NULL still is.
			return Null(), true, BoundNearest
		}
		return v, incl, BoundNone
	}
	return Value{Kind: k, I: i}, true, BoundNearest
}

// maxIntSharingFloat bounds how many consecutive int64 values convert to one
// float64: the spacing of float64 just below 2^63.
const maxIntSharingFloat = 1 << 10

// firstIntAtOrAbove returns the least int64 i with float64(i) >= f; ok is
// false when there is none. f is not NaN.
func firstIntAtOrAbove(f float64) (i int64, ok bool) {
	switch c := math.Ceil(f); {
	case c > 1<<63:
		return 0, false
	case c == 1<<63:
		i = math.MaxInt64 // converts to 2^63 itself
	case c <= -(1 << 63):
		return math.MinInt64, true
	default:
		i = int64(c)
	}
	// float64(i) >= f holds; so it may for the integers just below that round
	// up to the same float.
	for step := int64(maxIntSharingFloat); step > 0; step >>= 1 {
		if i >= math.MinInt64+step && float64(i-step) >= f {
			i -= step
		}
	}
	return i, true
}

// lastIntAtOrBelow returns the greatest int64 i with float64(i) <= f; ok is
// false when there is none. f is not NaN.
func lastIntAtOrBelow(f float64) (i int64, ok bool) {
	switch c := math.Floor(f); {
	case c < -(1 << 63):
		return 0, false
	case c >= 1<<63:
		return math.MaxInt64, true
	default:
		i = int64(c)
	}
	for step := int64(maxIntSharingFloat); step > 0; step >>= 1 {
		if i <= math.MaxInt64-step && float64(i+step) <= f {
			i += step
		}
	}
	return i, true
}
