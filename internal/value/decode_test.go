package value

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"
)

// decodeTestRows covers every kind, empty strings, NULLs, negative and large
// magnitudes, and the varint length boundaries.
func decodeTestRows() [][]Value {
	return [][]Value{
		{},
		{Null()},
		{NewInt(0), NewInt(-1), NewInt(1), NewInt(math.MaxInt64), NewInt(math.MinInt64)},
		{NewFloat(0), NewFloat(-0.0), NewFloat(3.14), NewFloat(math.Inf(1)), NewFloat(math.NaN())},
		{NewString(""), NewString("a"), NewString("hello world"), NewString(string([]byte{0, 0xFF, 0}))},
		{NewDate(9000), NewBool(true), NewBool(false), Null(), NewInt(127), NewInt(128)},
		{NewInt(42), NewFloat(1.5), NewString("x"), NewDate(1), NewBool(true), Null(), NewString("tail")},
	}
}

func TestDecodeProjectedMatchesFull(t *testing.T) {
	for _, row := range decodeTestRows() {
		enc := EncodeTuple(nil, row)
		full, _, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("DecodeTuple(%v): %v", row, err)
		}
		// Projecting every ordinal must equal the full decode.
		all := make([]int, len(row))
		for i := range all {
			all[i] = i
		}
		proj, err := DecodeProjectedInto(nil, enc, all)
		if err != nil {
			t.Fatalf("DecodeProjectedInto all of %v: %v", row, err)
		}
		if !rowsEqualNaN(full, proj) {
			t.Fatalf("projected-all %v != full %v", proj, full)
		}
		// Every single-ordinal projection must match that field.
		for i := range row {
			one, err := DecodeProjectedInto(nil, enc, []int{i})
			if err != nil {
				t.Fatalf("project col %d of %v: %v", i, row, err)
			}
			if len(one) != 1 || !valueEqualNaN(one[0], full[i]) {
				t.Fatalf("project col %d of %v = %v, want %v", i, row, one, full[i])
			}
		}
		// Ordinals past the end decode as NULL.
		past, err := DecodeProjectedInto(nil, enc, []int{len(row) + 3})
		if err != nil || len(past) != 1 || !past[0].IsNull() {
			t.Fatalf("past-end projection = %v, %v; want [NULL]", past, err)
		}
	}
}

func TestTupleWalkerSpans(t *testing.T) {
	row := []Value{NewInt(7), NewString("abc"), Null(), NewFloat(2.5), NewDate(100)}
	enc := EncodeTuple(nil, row)
	var w TupleWalker
	if err := w.Reset(enc); err != nil {
		t.Fatal(err)
	}
	if w.NumFields() != len(row) {
		t.Fatalf("NumFields=%d want %d", w.NumFields(), len(row))
	}
	// Concatenated field spans plus the header must reproduce the encoding.
	var rebuilt []byte
	rebuilt = append(rebuilt, enc[:w.Bytes()]...)
	for i := 0; i < w.NumFields(); i++ {
		sp, err := w.FieldSpan()
		if err != nil {
			t.Fatalf("FieldSpan %d: %v", i, err)
		}
		v, err := decodeFieldSpan(sp)
		if err != nil {
			t.Fatalf("decodeFieldSpan %d: %v", i, err)
		}
		if !valueEqualNaN(v, row[i]) {
			t.Fatalf("span %d decoded %v want %v", i, v, row[i])
		}
		rebuilt = append(rebuilt, sp...)
	}
	if !bytes.Equal(rebuilt, enc[:w.Bytes()]) {
		t.Fatal("concatenated spans do not reproduce the tuple encoding")
	}
}

func TestTypedDecoders(t *testing.T) {
	ints := []Value{NewInt(0), NewInt(-5), Null(), NewInt(1 << 40)}
	floats := []Value{NewFloat(1.25), Null(), NewFloat(-3)}
	strs := []Value{NewString("hi"), NewString(""), Null(), NewString("zz")}
	spansOf := func(vals []Value) [][]byte {
		enc := EncodeTuple(nil, vals)
		var w TupleWalker
		if err := w.Reset(enc); err != nil {
			t.Fatal(err)
		}
		var spans [][]byte
		for i := 0; i < w.NumFields(); i++ {
			sp, err := w.FieldSpan()
			if err != nil {
				t.Fatal(err)
			}
			spans = append(spans, sp)
		}
		return spans
	}

	got, err := DecodeInt64s(nil, KindInt, spansOf(ints))
	if err != nil || !reflect.DeepEqual(got, ints) {
		t.Fatalf("DecodeInt64s = %v, %v; want %v", got, err, ints)
	}
	gotF, err := DecodeFloat64s(nil, spansOf(floats))
	if err != nil || !reflect.DeepEqual(gotF, floats) {
		t.Fatalf("DecodeFloat64s = %v, %v; want %v", gotF, err, floats)
	}
	gotS, err := DecodeStrings(nil, spansOf(strs))
	if err != nil || !reflect.DeepEqual(gotS, strs) {
		t.Fatalf("DecodeStrings = %v, %v; want %v", gotS, err, strs)
	}
	// Generic decoder over a mixed row.
	mixed := []Value{NewInt(1), NewString("s"), NewFloat(2), Null(), NewBool(true)}
	gotM, err := DecodeFieldSpans(nil, spansOf(mixed))
	if err != nil || !reflect.DeepEqual(gotM, mixed) {
		t.Fatalf("DecodeFieldSpans = %v, %v; want %v", gotM, err, mixed)
	}
}

func TestDecodeKeyValueRoundTrip(t *testing.T) {
	cases := []struct {
		v Value
		k Kind
	}{
		{NewInt(0), KindInt},
		{NewInt(123456), KindInt},
		{NewInt(-98765), KindInt},
		{NewInt(1 << 53), KindInt},
		{NewInt(-(1 << 53)), KindInt},
		{NewInt(1<<53 + 1), KindInt},
		{NewInt(-(1<<53 + 1)), KindInt},
		{NewInt(1<<53 - 1), KindInt},
		{NewInt(math.MaxInt64), KindInt},
		{NewInt(math.MinInt64), KindInt},
		{NewInt(math.MaxInt64 - 1), KindInt},
		{NewInt(math.MinInt64 + 1), KindInt},
		{NewFloat(1 << 53), KindFloat},
		{NewFloat(-(1 << 53)), KindFloat},
		{NewFloat(1e300), KindFloat},
		{NewFloat(math.Inf(1)), KindFloat},
		{NewFloat(math.Inf(-1)), KindFloat},
		{NewDate(9125), KindDate},
		{NewDate(-400), KindDate},
		{NewBool(true), KindBool},
		{NewBool(false), KindBool},
		{NewFloat(3.25), KindFloat},
		{NewFloat(-1e300), KindFloat},
		{NewFloat(0), KindFloat},
		{NewString(""), KindString},
		{NewString("abc"), KindString},
		{NewString(string([]byte{0, 1, 0, 0xFF})), KindString},
		{Null(), KindInt},
		{Null(), KindFloat},
		{Null(), KindString},
	}
	for _, c := range cases {
		if got, changed, err := CoerceKeyValue(c.v, c.k); err != nil || changed || got != c.v {
			t.Fatalf("CoerceKeyValue(%v, %v) = %v, %v, %v; want the value unchanged", c.v, c.k, got, changed, err)
		}
		enc := AppendStoredKeyValue(nil, c.v)
		got, n, err := DecodeKeyValue(enc, c.k)
		if err != nil {
			t.Fatalf("DecodeKeyValue(%v as %v): %v", c.v, c.k, err)
		}
		if n != len(enc) {
			t.Fatalf("DecodeKeyValue(%v) consumed %d of %d bytes", c.v, n, len(enc))
		}
		if got != c.v {
			t.Fatalf("DecodeKeyValue(%v as %v) = %v", c.v, c.k, got)
		}
		skip, err := SkipKeyValue(enc, c.k)
		if err != nil || skip != len(enc) {
			t.Fatalf("SkipKeyValue(%v) = %d, %v; want %d", c.v, skip, err, len(enc))
		}
		// Bytes of one kind are never a value of another: a mis-declared column
		// is an error, not a wrong row.
		for _, other := range []Kind{KindInt, KindFloat, KindString} {
			family := other == c.k || other == KindInt && (c.k == KindDate || c.k == KindBool)
			if c.v.IsNull() || family {
				continue
			}
			if v, _, err := DecodeKeyValue(enc, other); err == nil {
				t.Fatalf("key bytes of %v %v decoded as %v: %v", c.k, c.v, other, v)
			}
			if _, err := SkipKeyValue(enc, other); err == nil {
				t.Fatalf("key bytes of %v %v skipped as %v", c.k, c.v, other)
			}
		}
	}
	// Multi-column key: decode each component in sequence.
	key := []Value{NewInt(42), NewString("ab"), NewDate(100), NewFloat(-2.5)}
	kinds := []Kind{KindInt, KindString, KindDate, KindFloat}
	var enc []byte
	for _, v := range key {
		enc = AppendStoredKeyValue(enc, v)
	}
	off := 0
	for i, k := range kinds {
		v, n, err := DecodeKeyValue(enc[off:], k)
		if err != nil {
			t.Fatalf("component %d: %v", i, err)
		}
		if v != key[i] {
			t.Fatalf("component %d = %v want %v", i, v, key[i])
		}
		off += n
	}
	if off != len(enc) {
		t.Fatalf("consumed %d of %d key bytes", off, len(enc))
	}
}

// TestCoerceKeyValue pins the rule that makes key columns recoverable by
// construction: a mismatched value either converts to the declared kind
// without changing what it compares equal to — or its in-memory grouping key —
// or is refused; nothing is stored that DecodeKeyValue would read back
// differently.
func TestCoerceKeyValue(t *testing.T) {
	negZero := NewFloat(math.Copysign(0, -1))
	coerced := []struct {
		v    Value
		k    Kind
		want Value
	}{
		{negZero, KindFloat, NewFloat(0)},
		{NewFloat(3), KindInt, NewInt(3)},
		{NewFloat(-(1 << 62)), KindInt, NewInt(-(1 << 62))},
		{NewFloat(-(1 << 63)), KindInt, NewInt(math.MinInt64)},
		{NewInt(7), KindFloat, NewFloat(7)},
		{NewInt(1<<53 + 2), KindFloat, NewFloat(1<<53 + 2)},
		{NewInt(9125), KindDate, NewDate(9125)},
		{NewDate(9125), KindInt, NewInt(9125)},
		{NewBool(true), KindInt, NewInt(1)},
		{NewFloat(1), KindBool, NewBool(true)},
	}
	for _, c := range coerced {
		got, changed, err := CoerceKeyValue(c.v, c.k)
		if err != nil || !changed || got.Kind != c.want.Kind || got.I != c.want.I ||
			math.Float64bits(got.F) != math.Float64bits(c.want.F) {
			t.Fatalf("CoerceKeyValue(%v %v, %v) = %v %v, %v, %v; want %v", c.v.Kind, c.v, c.k, got.Kind, got, changed, err, c.want)
		}
		if Compare(c.v, got) != 0 || !bytes.Equal(AppendKeyValue(nil, c.v), AppendKeyValue(nil, got)) {
			t.Fatalf("coercing %v to %v changed what it equals or groups with", c.v, c.k)
		}
		back, _, err := DecodeKeyValue(AppendStoredKeyValue(nil, got), c.k)
		if err != nil || back != got {
			t.Fatalf("stored key of %v decodes as %v to %v (%v), want %v", c.v, c.k, back, err, got)
		}
	}
	rejected := []struct {
		v Value
		k Kind
	}{
		{NewFloat(1.5), KindInt},
		{NewFloat(math.NaN()), KindInt},
		{NewFloat(math.Inf(1)), KindDate},
		{NewFloat(1 << 63), KindInt},       // compares equal to MaxInt64, is not
		{NewInt(math.MaxInt64), KindFloat}, // rounds to 2^63
		{NewInt(1<<53 + 1), KindFloat},     // not a float64
		{NewString("x"), KindInt},
		{NewString("1996-01-01"), KindDate},
		{NewInt(1), KindString},
	}
	for _, c := range rejected {
		if got, _, err := CoerceKeyValue(c.v, c.k); err == nil {
			t.Fatalf("CoerceKeyValue(%v %v, %v) = %v, want an error", c.v.Kind, c.v, c.k, got)
		}
	}
}

// storedKey encodes v as a key column of kind k and checks skip width and
// exact recovery under that kind.
func storedKey(t *testing.T, v Value, k Kind) []byte {
	t.Helper()
	enc := AppendStoredKeyValue(nil, v)
	got, n, err := DecodeKeyValue(enc, k)
	if err != nil || n != len(enc) || !valueEqualNaN(got, v) {
		t.Fatalf("%v key %v (%x) round-trips to %v (n=%d, err=%v)", k, v, enc, got, n, err)
	}
	if skip, err := SkipKeyValue(enc, k); err != nil || skip != len(enc) {
		t.Fatalf("SkipKeyValue(%v %v) = %d, %v; want %d", k, v, skip, err, len(enc))
	}
	if k == KindString {
		body, n, isStr, err := KeyStringBody(enc, nil)
		if err != nil || n != len(enc) || isStr == v.IsNull() || string(body) != v.S {
			t.Fatalf("KeyStringBody(%q) = %q, %d, %v, %v", v.S, body, n, isStr, err)
		}
	}
	return enc
}

// wantIntKeyLen is the documented width of an integer-family key value: the class
// byte plus the fewest bytes that hold the magnitude (of -v-1 for a negative
// v, as two's complement does).
func wantIntKeyLen(v int64) int {
	u := uint64(v)
	if v < 0 {
		u = max(^u, 1)
	}
	n := 1
	for ; u != 0; u >>= 8 {
		n++
	}
	return n
}

// TestTypedKeyLengthClasses pins the integer-family stored key at every edge
// of a length class — ±255/256, ±65535/65536 ... ±2^56, the ±2^53 pair that a
// float64 word used to blur, and the int64 extremes: each value takes exactly
// the bytes its magnitude needs (1 for zero, 9 at most), round-trips exactly,
// and bytes.Compare of any two encodings agrees with integer comparison.
func TestTypedKeyLengthClasses(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64,
		-(1 << 53) - 1, -(1 << 53), 1 << 53, 1<<53 + 1}
	for n := 1; n < 8; n++ {
		edge := int64(1) << (8 * n)
		vals = append(vals, edge-1, edge, edge+1, -edge+1, -edge, -edge-1)
	}
	slices.Sort(vals)
	for _, k := range []Kind{KindInt, KindDate} {
		var prev []byte
		for i, v := range vals {
			enc := storedKey(t, Value{Kind: k, I: v}, k)
			if len(enc) != wantIntKeyLen(v) {
				t.Fatalf("%v key %d encodes to %d bytes (%x), want %d", k, v, len(enc), enc, wantIntKeyLen(v))
			}
			if i > 0 && bytes.Compare(prev, enc) >= 0 {
				t.Fatalf("%v keys %d (%x) and %d (%x) are out of order", k, vals[i-1], prev, v, enc)
			}
			prev = enc
		}
	}
	for v, want := range map[int64]int{0: 1, 1: 2, 255: 2, 256: 3, -256: 2, -257: 3, 9125: 3, 65535: 3, 65536: 4, 120000: 4,
		1 << 24: 5, math.MaxInt64: 9, math.MinInt64: 9} {
		if got := len(AppendStoredKeyValue(nil, NewInt(v))); got != want {
			t.Fatalf("int key %d takes %d bytes, want %d", v, got, want)
		}
	}
	if got := len(AppendStoredKeyValue(nil, NewFloat(1.5))); got != 9 {
		t.Fatalf("float key takes %d bytes, want 9", got)
	}
}

// FuzzTypedKeyOrder checks the stored-key codec kind by kind over random
// values: each value round-trips exactly under its kind, SkipKeyValue agrees
// with the encoded width, bytes.Compare of two encodings of one kind has the
// sign of Compare (NULL lowest), no encoding is a prefix of another — so
// composite keys, here over every pair of kinds, order column by column even
// when one first column's bytes begin another's — and no decoder panics or
// reads past the bytes it is given, whatever they are.
func FuzzTypedKeyOrder(f *testing.F) {
	f.Add(int64(0), int64(1), 0.0, 1.5, "", "a", []byte{0x19, 0x01})
	f.Add(int64(1<<53), int64(1<<53+1), -0.0, 0.0, "a", "a\x00", []byte{0x03, 'a', 0x00})
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), math.Inf(-1), math.MaxFloat64, "a\x00b", "a\x00\xff", []byte{0x20, 0xFF})
	f.Add(int64(-(1<<53))-1, int64(-(1 << 53)), 1e-300, -1e-300, "\x00", "\x00\x00", []byte{0x02, 1, 2, 3})
	f.Add(int64(255), int64(256), 2.0, 3.0, "ab", "abc", []byte{0x10, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(1), int64(0x0100), 1.0, 256.0, "\x01", "\x01\x00", []byte{0x01})
	f.Fuzz(func(t *testing.T, ia, ib int64, fa, fb float64, sa, sb string, raw []byte) {
		if fa != fa || fb != fb {
			fa, fb = 0, 1 // Compare does not order NaN
		}
		nfa, _, _ := CoerceKeyValue(NewFloat(fa), KindFloat)
		nfb, _, _ := CoerceKeyValue(NewFloat(fb), KindFloat)
		// One pair of values, and their encodings, per kind.
		pairs := map[Kind][2]Value{
			KindInt:    {NewInt(ia), NewInt(ib)},
			KindDate:   {NewDate(ia), NewDate(ib)},
			KindBool:   {NewBool(ia&1 != 0), NewBool(ib&1 != 0)},
			KindFloat:  {nfa, nfb},
			KindString: {NewString(sa), NewString(sb)},
		}
		kinds := []Kind{KindInt, KindDate, KindBool, KindFloat, KindString}
		for _, k := range kinds {
			a, b := pairs[k][0], pairs[k][1]
			ea, eb, en := storedKey(t, a, k), storedKey(t, b, k), storedKey(t, Null(), k)
			if got, want := bytes.Compare(ea, eb), Compare(a, b); got != want {
				t.Fatalf("%v: bytes.Compare(key(%v), key(%v)) = %d, Compare = %d", k, a, b, got, want)
			}
			if bytes.Compare(en, ea) >= 0 {
				t.Fatalf("%v: NULL key %x does not sort below key(%v) %x", k, en, a, ea)
			}
			if !bytes.Equal(ea, eb) && (bytes.HasPrefix(ea, eb) || bytes.HasPrefix(eb, ea)) {
				t.Fatalf("%v: one of key(%v) %x and key(%v) %x is a prefix of the other", k, a, ea, b, eb)
			}
		}
		// Composite keys (k1, k2): (a1, b2) against (b1, a2) and (a1, a2).
		for _, k1 := range kinds {
			for _, k2 := range kinds {
				x := []Value{pairs[k1][0], pairs[k2][1]}
				for _, y := range [][]Value{{pairs[k1][1], pairs[k2][0]}, {pairs[k1][0], pairs[k2][0]}, {pairs[k1][0], Null()}} {
					want := Compare(x[0], y[0])
					if want == 0 {
						want = Compare(x[1], y[1])
					}
					ex := AppendStoredKeyValue(AppendStoredKeyValue(nil, x[0]), x[1])
					ey := AppendStoredKeyValue(AppendStoredKeyValue(nil, y[0]), y[1])
					if got := bytes.Compare(ex, ey); got != want {
						t.Fatalf("(%v,%v): bytes.Compare(key%v, key%v) = %d, want %d", k1, k2, x, y, got, want)
					}
				}
			}
		}
		// Arbitrary bytes: an error or a value within bounds, the same width
		// from every parser, and a value that encodes back to what it decodes
		// from.
		for _, k := range append(kinds, KindNull, Kind(77)) {
			v, n, err := DecodeKeyValue(raw, k)
			skip, skipErr := SkipKeyValue(raw, k)
			if err != nil {
				continue
			}
			if n <= 0 || n > len(raw) || skipErr != nil || skip != n {
				t.Fatalf("%v: DecodeKeyValue(%x) consumed %d, SkipKeyValue %d (%v)", k, raw, n, skip, skipErr)
			}
			if !v.IsNull() && v.Kind != k {
				t.Fatalf("%v: DecodeKeyValue(%x) returned a %v", k, raw, v.Kind)
			}
			if back, _, err := DecodeKeyValue(AppendStoredKeyValue(nil, v), k); err != nil || !valueEqualNaN(back, v) {
				t.Fatalf("%v: %x decodes to %v, which re-encodes to %v (%v)", k, raw, v, back, err)
			}
		}
		var scratch []byte
		if body, n, _, err := KeyStringBody(raw, &scratch); err == nil && (n <= 0 || n > len(raw) || len(body) > n) {
			t.Fatalf("KeyStringBody(%x) = %q, %d", raw, body, n)
		}
	})
}

func TestDecodeCorruptNeverSucceedsSilently(t *testing.T) {
	row := []Value{NewInt(7), NewString("abcdef"), NewFloat(2.5)}
	enc := EncodeTuple(nil, row)
	cols := []int{0, 1, 2}
	// Every strict prefix must fail cleanly (or, for complete-field prefixes,
	// return fewer values) — never panic.
	for cut := 0; cut < len(enc); cut++ {
		_, _ = DecodeProjectedInto(nil, enc[:cut], cols)
	}
	// Flipping the header to claim absurd field counts must fail.
	bad := append([]byte(nil), enc...)
	bad[0] = 0xFF
	bad = append([]byte{0xFF, 0xFF, 0xFF, 0x7F}, enc[1:]...)
	if _, err := DecodeProjectedInto(nil, bad, cols); err == nil {
		t.Fatal("absurd field count decoded without error")
	}
	// Unknown kind byte.
	bad2 := append([]byte(nil), enc...)
	bad2[1] = 0x7E
	if _, err := DecodeProjectedInto(nil, bad2, cols); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
	// The full decoder must reject the same absurd field count before sizing
	// the row — a corrupt header must never drive a giant allocation.
	if _, _, err := DecodeTuple(bad); err == nil {
		t.Fatal("full decode accepted absurd field count")
	}
	// A string length near 2^64 overflows a naive off+int(length) bounds
	// check into a negative slice index; both decoders must error, not panic.
	huge := []byte{1, byte(KindString), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'x'}
	if _, _, err := DecodeTuple(huge); err == nil {
		t.Fatal("full decode accepted overflowing string length")
	}
	if _, err := DecodeProjectedInto(nil, huge, []int{0}); err == nil {
		t.Fatal("projected decode accepted overflowing string length")
	}
}

// rowsEqualNaN compares rows treating NaN floats as equal to themselves.
func rowsEqualNaN(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valueEqualNaN(a[i], b[i]) {
			return false
		}
	}
	return true
}

func valueEqualNaN(a, b Value) bool {
	if a.Kind == KindFloat && b.Kind == KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

// FuzzTupleRoundTrip encodes a tuple derived from fuzz input and checks that
// full decode, projected decode of every column, and the walker's span
// iteration all agree bit-for-bit.
func FuzzTupleRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 128, 7, 9, 200, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Derive a row from the fuzz bytes: each byte picks a kind and seeds
		// the value; string lengths come from the following bytes.
		var row []Value
		for i := 0; i < len(data) && len(row) < 40; i++ {
			b := data[i]
			switch b % 6 {
			case 0:
				row = append(row, Null())
			case 1:
				row = append(row, NewInt(int64(b)*1e9-5e10))
			case 2:
				row = append(row, NewFloat(float64(b)/7.0-13))
			case 3:
				end := i + 1 + int(b%17)
				if end > len(data) {
					end = len(data)
				}
				row = append(row, NewString(string(data[i+1:end])))
				i = end - 1
			case 4:
				row = append(row, NewDate(int64(b)-128))
			case 5:
				row = append(row, NewBool(b&1 == 1))
			}
		}
		enc := EncodeTuple(nil, row)
		full, n, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if !rowsEqualNaN(row, full) {
			t.Fatalf("round trip %v -> %v", row, full)
		}
		all := make([]int, len(row))
		for i := range all {
			all[i] = i
		}
		proj, err := DecodeProjectedInto(nil, enc, all)
		if err != nil {
			t.Fatalf("projected decode failed: %v", err)
		}
		if !rowsEqualNaN(full, proj) {
			t.Fatalf("projected %v != full %v", proj, full)
		}
	})
}

// FuzzDecodeProjected feeds arbitrary bytes to the projected decoder and the
// walker: corrupt or truncated input must error, never panic, and whenever the
// full decoder accepts the input the projected decoder must agree with it.
func FuzzDecodeProjected(f *testing.F) {
	f.Add(EncodeTuple(nil, []Value{NewInt(1), NewString("ab"), NewFloat(2)}), uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, ncols uint8) {
		cols := make([]int, ncols%24)
		for i := range cols {
			cols[i] = i
		}
		proj, projErr := DecodeProjectedInto(nil, data, cols)
		full, _, fullErr := DecodeTuple(data)
		if fullErr == nil && projErr == nil {
			for i, ord := range cols {
				want := Null()
				if ord < len(full) {
					want = full[ord]
				}
				if !valueEqualNaN(proj[i], want) {
					t.Fatalf("col %d: projected %v, full %v", ord, proj[i], want)
				}
			}
		}
		// Walker over arbitrary bytes must terminate without panicking.
		var w TupleWalker
		if err := w.Reset(data); err == nil {
			for i := 0; i < w.NumFields(); i++ {
				if _, err := w.FieldSpan(); err != nil {
					break
				}
			}
		}
	})
}

// BenchmarkDecodeTuple compares the three decode strategies over a 16-field
// lineitem-shaped tuple: full row decode, projected decode of 2 ordinals, and
// the walker+typed-decoder path the batch fill uses.
func BenchmarkDecodeTuple(b *testing.B) {
	row := []Value{
		NewInt(123456), NewInt(77), NewInt(12), NewInt(3),
		NewFloat(31), NewFloat(45123.25), NewFloat(0.04), NewFloat(0.02),
		NewString("A"), NewString("F"),
		NewDate(9200), NewDate(9230), NewDate(9237), NewString("TRUCK"),
		NewString("DELIVER IN PERSON"), NewString("carefully packed comment"),
	}
	enc := EncodeTuple(nil, row)
	cols := []int{5, 10} // l_extendedprice, l_shipdate

	b.Run("full", func(b *testing.B) {
		buf := make([]Value, 0, len(row))
		for i := 0; i < b.N; i++ {
			var err error
			buf, _, err = DecodeTupleInto(buf[:0], enc)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("projected", func(b *testing.B) {
		buf := make([]Value, 0, len(cols))
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = DecodeProjectedInto(buf[:0], enc, cols)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("typed", func(b *testing.B) {
		// The batch-fill shape: collect spans with the walker, then decode each
		// projected column through its typed decoder.
		spans := make([][]byte, 2)
		price := make([]Value, 0, 1)
		ship := make([]Value, 0, 1)
		var w TupleWalker
		for i := 0; i < b.N; i++ {
			if err := w.Reset(enc); err != nil {
				b.Fatal(err)
			}
			if err := w.Skip(5); err != nil {
				b.Fatal(err)
			}
			sp, err := w.FieldSpan()
			if err != nil {
				b.Fatal(err)
			}
			spans[0] = sp
			if err := w.Skip(4); err != nil {
				b.Fatal(err)
			}
			if sp, err = w.FieldSpan(); err != nil {
				b.Fatal(err)
			}
			spans[1] = sp
			if price, err = DecodeFloat64s(price[:0], spans[:1]); err != nil {
				b.Fatal(err)
			}
			if ship, err = DecodeInt64s(ship[:0], KindDate, spans[1:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
