package value

import (
	"bytes"
	"math"
	"reflect"
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
		{NewBool(true), KindBool},
		{NewBool(false), KindBool},
		{NewFloat(3.25), KindFloat},
		{NewFloat(-1e300), KindFloat},
		{NewFloat(0), KindFloat},
		{NewString(""), KindString},
		{NewString("abc"), KindString},
		{NewString(string([]byte{0, 1, 0, 0xFF})), KindString},
		{Null(), KindInt},
		{Null(), KindString},
	}
	for _, c := range cases {
		if got, changed, err := CoerceKeyValue(c.v, c.k); err != nil || changed || got != c.v {
			t.Fatalf("CoerceKeyValue(%v, %v) = %v, %v, %v; want the value unchanged", c.v, c.k, got, changed, err)
		}
		enc := AppendKeyValue(nil, c.v)
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
		skip, err := SkipKeyValue(enc)
		if err != nil || skip != len(enc) {
			t.Fatalf("SkipKeyValue(%v) = %d, %v; want %d", c.v, skip, err, len(enc))
		}
	}
	// Multi-column key: decode each component in sequence.
	key := []Value{NewInt(42), NewString("ab"), NewDate(100)}
	kinds := []Kind{KindInt, KindString, KindDate}
	enc := EncodeKey(nil, key)
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
// without changing what it compares equal to — or how it encodes — or is
// refused; nothing is stored that DecodeKeyValue would read back differently.
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
		enc := AppendKeyValue(nil, c.v)
		if !bytes.Equal(enc, AppendKeyValue(nil, got)) {
			t.Fatalf("coercing %v to %v changed its key bytes", c.v, c.k)
		}
		back, _, err := DecodeKeyValue(enc, c.k)
		if err != nil || back != got {
			t.Fatalf("key bytes of %v decode as %v to %v (%v), want %v", c.v, c.k, back, err, got)
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

// keyRoundTripInt encodes v as an integer key column and checks the byte
// width, skip width, and exact recovery.
func keyRoundTripInt(t *testing.T, v int64) []byte {
	t.Helper()
	enc := AppendKeyValue(nil, NewInt(v))
	wantLen := 9
	if v >= 1<<53 || v <= -(1<<53) {
		wantLen = 17 // word + typed integer suffix
	}
	if len(enc) != wantLen {
		t.Fatalf("int key %d encodes to %d bytes, want %d", v, len(enc), wantLen)
	}
	got, n, err := DecodeKeyValue(enc, KindInt)
	if err != nil || n != len(enc) || got.I != v || got.Kind != KindInt {
		t.Fatalf("int key %d round-trips to %v (n=%d, err=%v)", v, got, n, err)
	}
	if skip, err := SkipKeyValue(enc); err != nil || skip != len(enc) {
		t.Fatalf("SkipKeyValue(int %d) = %d, %v; want %d", v, skip, err, len(enc))
	}
	return enc
}

// TestIntKeyOrderBoundaries pins the typed integer key encoding at the exact
// suffix thresholds (±2^53, where adjacent integers start sharing a float64
// word) and the int64 extremes (±2^63): every value round-trips exactly and
// bytes.Compare of the encodings agrees with exact integer comparison —
// including the adjacent pairs that collapsed onto one word before the
// suffix existed.
func TestIntKeyOrderBoundaries(t *testing.T) {
	vals := []int64{
		math.MinInt64, math.MinInt64 + 1,
		-(1 << 53) - 2, -(1 << 53) - 1, -(1 << 53), -(1 << 53) + 1,
		-2, -1, 0, 1, 2,
		1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3,
		math.MaxInt64 - 1, math.MaxInt64,
	}
	encs := make([][]byte, len(vals))
	for i, v := range vals {
		encs[i] = keyRoundTripInt(t, v)
	}
	for i := range vals {
		for j := range vals {
			want := 0
			if vals[i] < vals[j] {
				want = -1
			} else if vals[i] > vals[j] {
				want = 1
			}
			if got := bytes.Compare(encs[i], encs[j]); got != want {
				t.Fatalf("bytes.Compare(key(%d), key(%d)) = %d, want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

// FuzzIntKeyOrder checks the typed integer key encoding across random int64
// pairs: both values round-trip exactly through DecodeKeyValue, SkipKeyValue
// agrees with the encoded width, and bytes.Compare of the encodings has the
// sign of exact integer comparison. Mixed int/float pairs additionally pin
// that the encodings never misorder a Compare-unequal pair (Compare-equal
// cross-kind pairs beyond 2^53 may encode unequal: the suffix keeps the exact
// integer, which float comparison discards).
func FuzzIntKeyOrder(f *testing.F) {
	f.Add(int64(0), int64(1))
	f.Add(int64(1<<53), int64(1<<53+1))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64))
	f.Add(int64(-(1<<53))-1, int64(-(1 << 53)))
	f.Fuzz(func(t *testing.T, a, b int64) {
		ea := keyRoundTripInt(t, a)
		eb := keyRoundTripInt(t, b)
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		if got := bytes.Compare(ea, eb); got != want {
			t.Fatalf("bytes.Compare(key(%d), key(%d)) = %d, want %d", a, b, got, want)
		}
		// Mixed kinds: an int key against the float nearest b must never
		// order against the sign of value.Compare when Compare is decisive.
		fb := NewFloat(float64(b))
		efb := AppendKeyValue(nil, fb)
		if cmp := Compare(NewInt(a), fb); cmp != 0 {
			got := bytes.Compare(ea, efb)
			if (got < 0) != (cmp < 0) || (got > 0) != (cmp > 0) {
				t.Fatalf("bytes.Compare(key(int %d), key(float %g)) = %d, Compare = %d", a, float64(b), got, cmp)
			}
		}
		gotF, n, err := DecodeKeyValue(efb, KindFloat)
		if err != nil || n != len(efb) || math.Float64bits(gotF.F) != math.Float64bits(fb.F) {
			t.Fatalf("float key %g round-trips to %v (n=%d, err=%v)", fb.F, gotF, n, err)
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
