package value

import (
	"math"
	"testing"
)

// TestCoerceKeyBoundMatchesCompare holds CoerceKeyBound to its contract by
// brute force: for every column kind, every bound value of every kind and all
// four bound forms, the coerced bound selects exactly the stored values that
// Compare puts inside the original one. The stored integers surround every
// place float64 changes its mind — ±2^53, the 1,024-wide steps below 2^63 and
// the int64 extremes — so an off-by-one in the float-to-integer rounding of a
// bound cannot hide.
func TestCoerceKeyBoundMatchesCompare(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 3, 3.5, -3.5, 1e15 + 0.5,
		1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), -(1<<53 + 2), 1<<60 + 256, -(1<<60 + 256),
		1 << 62, math.Nextafter(1<<63, 0), 1 << 63, math.Nextafter(1<<63, math.Inf(1)),
		-(1 << 63), math.Nextafter(-(1 << 63), 0), math.Nextafter(-(1 << 63), math.Inf(-1)),
		1e19, -1e19, math.MaxFloat64, math.Inf(1), math.Inf(-1),
	}
	ints := []int64{0, 1, -1, 2, 3, 4, -3, -4, 255, 256, 1e15, 1e15 + 1, math.MaxInt64, math.MinInt64}
	for _, f := range floats {
		if math.Abs(f) < 1<<53 || math.IsInf(f, 0) {
			continue
		}
		// Clamp into int64 and walk the neighbourhood without overflowing.
		c := int64(math.MaxInt64)
		if f < 1<<63 {
			c = math.MinInt64
			if f > -(1 << 63) {
				c = int64(f)
			}
		}
		for d := int64(-1100); d <= 1100; d++ {
			if i := c + d; (d < 0) == (i < c) || d == 0 {
				ints = append(ints, i)
			}
		}
	}
	strs := []string{"", "a", "a\x00", "b"}

	bounds := []Value{Null()}
	stored := map[Kind][]Value{KindNull: {Null()}}
	for _, k := range []Kind{KindInt, KindDate, KindFloat, KindString} {
		stored[k] = []Value{Null()}
	}
	for _, i := range ints {
		stored[KindInt] = append(stored[KindInt], NewInt(i))
		stored[KindDate] = append(stored[KindDate], NewDate(i))
	}
	for _, f := range floats {
		v, _, _ := CoerceKeyValue(NewFloat(f), KindFloat)
		stored[KindFloat] = append(stored[KindFloat], v)
		bounds = append(bounds, NewFloat(f))
	}
	for _, s := range strs {
		stored[KindString] = append(stored[KindString], NewString(s))
		bounds = append(bounds, NewString(s))
	}
	for _, i := range []int64{0, 3, -4, 1 << 53, 1<<53 + 1, -(1<<53 + 1), 1<<62 + 1, math.MaxInt64, math.MinInt64} {
		bounds = append(bounds, NewInt(i), NewDate(i))
	}
	bounds = append(bounds, NewBool(true))

	inside := func(x, bound Value, upper, incl bool) bool {
		c := Compare(x, bound)
		if upper {
			c = -c
		}
		return c > 0 || c == 0 && incl
	}
	for k, xs := range stored {
		for _, b := range bounds {
			for form := 0; form < 4; form++ {
				upper, incl := form&1 != 0, form&2 != 0
				out, outIncl, fit := CoerceKeyBound(b, k, upper, incl)
				if (fit == BoundPoint || fit == BoundNearest) && !out.IsNull() && out.Kind != k {
					t.Fatalf("CoerceKeyBound(%v %v, %v) returned a %v", b.Kind, b, k, out.Kind)
				}
				for _, x := range xs {
					want := inside(x, b, upper, incl)
					got := fit == BoundAll
					if fit == BoundPoint || fit == BoundNearest {
						got = inside(x, out, upper, outIncl)
					}
					if got != want {
						t.Fatalf("%v column, bound %v %v (upper=%v incl=%v) became %v (incl=%v, fit=%d): stored %v inside = %v, Compare says %v",
							k, b.Kind, b, upper, incl, out, outIncl, fit, x, got, want)
					}
					if fit == BoundPoint && (Compare(x, b) == 0) != (Compare(x, out) == 0 && x.Kind == out.Kind) {
						t.Fatalf("%v column: %v %v is no single point: stored %v", k, b.Kind, b, x)
					}
				}
			}
		}
	}
	// The same-kind path is the index nested-loop join's per-outer-row path.
	v := NewInt(42)
	if n := testing.AllocsPerRun(100, func() { CoerceKeyBound(v, KindInt, false, true) }); n != 0 {
		t.Fatalf("same-kind CoerceKeyBound allocates %v times", n)
	}
}
