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

// ownKinds declares every field of row as its own kind (a NULL as INT), so
// only the NULLs are tagged; allStrings declares them all STRING, so every
// field that is not a string is.
func ownKinds(row []Value) []Kind {
	kinds := make([]Kind, len(row))
	for i, v := range row {
		kinds[i] = v.Kind
		if v.IsNull() {
			kinds[i] = KindInt
		}
	}
	return kinds
}

func allStrings(row []Value) []Kind {
	return slices.Repeat([]Kind{KindString}, len(row))
}

// decodeWalked decodes field ord of a record by walking to it: Skip over the
// fields before it, then DecodeField (or StringField, for a declared string).
func decodeWalked(rec []byte, kinds []Kind, ord int) (Value, error) {
	var w RecordWalker
	if err := w.Reset(rec, kinds); err != nil {
		return Value{}, err
	}
	if err := w.Skip(ord); err != nil {
		return Value{}, err
	}
	var v Value
	if kinds[ord] != KindString {
		err := w.DecodeField(&v)
		return v, err
	}
	body, isStr, err := w.StringField(&v)
	if isStr {
		v = NewString(string(body))
	}
	return v, err
}

func TestDecodeProjectedMatchesFull(t *testing.T) {
	for _, row := range decodeTestRows() {
		for _, kinds := range [][]Kind{ownKinds(row), allStrings(row)} {
			rec := AppendRecord(nil, kinds, row)
			full, err := DecodeRecordInto(nil, kinds, rec)
			if err != nil {
				t.Fatalf("DecodeRecordInto(%v under %v): %v", row, kinds, err)
			}
			if !rowsEqualNaN(full, row) {
				t.Fatalf("record of %v under %v decodes to %v", row, kinds, full)
			}
			// Walking to any one field must decode exactly that field.
			for i := range row {
				v, err := decodeWalked(rec, kinds, i)
				if err != nil || !valueEqualNaN(v, full[i]) {
					t.Fatalf("walk to field %d of %v under %v = %v, %v; want %v", i, row, kinds, v, err, full[i])
				}
			}
			// There is no field past the last: the schema states the count.
			var w RecordWalker
			if err := w.Reset(rec, kinds); err != nil || w.Skip(len(row)+1) == nil {
				t.Fatalf("walk past the %d fields of %v did not fail", len(row), row)
			}
		}
	}
}

// TestRecordWalkerSpans: the bitmap and the fields tile the record exactly —
// each field advances the walker by its own encoded width, skipping k fields
// lands where k decodes do, and the last field ends the record.
func TestRecordWalkerSpans(t *testing.T) {
	row := []Value{NewInt(7), NewString("abc"), Null(), NewFloat(2.5), NewDate(100), NewString("x"),
		NewInt(-300), NewBool(true), NewFloat(-1)}
	kinds := []Kind{KindInt, KindString, KindString, KindFloat, KindDate, KindInt, KindInt, KindBool, KindInt}
	rec := AppendRecord(nil, kinds, row)
	var w RecordWalker
	if err := w.Reset(rec, kinds); err != nil {
		t.Fatal(err)
	}
	if w.off != 2 || rec[0] != 0b00100100 || rec[1] != 0b1 {
		t.Fatalf("bitmap %08b %08b after %d bytes, want fields 2, 5 and 8 tagged", rec[0], rec[1], w.off)
	}
	offsets := []int{w.off}
	for i := range row {
		var v Value
		if err := w.DecodeField(&v); err != nil || !valueEqualNaN(v, row[i]) {
			t.Fatalf("field %d = %v, %v; want %v", i, v, err, row[i])
		}
		want := len(appendBody(nil, row[i]))
		if row[i].Kind != kinds[i] || row[i].IsNull() {
			want++ // the kind byte of a tagged field
		}
		if got := w.off - offsets[i]; got != want {
			t.Fatalf("field %d took %d bytes, its form is %d", i, got, want)
		}
		offsets = append(offsets, w.off)
	}
	if w.off != len(rec) {
		t.Fatalf("fields end at %d of %d record bytes", w.off, len(rec))
	}
	for k := range row {
		if err := w.Reset(rec, kinds); err != nil || w.Skip(k) != nil || w.off != offsets[k] {
			t.Fatalf("Skip(%d) lands at %d, fields say %d", k, w.off, offsets[k])
		}
	}
}

// TestTypedDecoders decodes columns of each declared kind — values of the
// kind, NULLs among them, and a value of another kind — through the walker's
// typed paths. Only the NULLs and the stray kind are tagged, and a column of
// its kind alone has an all-zero bitmap.
func TestTypedDecoders(t *testing.T) {
	cols := []struct {
		kind Kind
		vals []Value
	}{
		{KindInt, []Value{NewInt(0), NewInt(-5), Null(), NewInt(1 << 40), NewFloat(2.5)}},
		{KindDate, []Value{NewDate(9125), Null(), NewString("1996-01-01")}},
		{KindFloat, []Value{NewFloat(1.25), Null(), NewFloat(-3), NewInt(3)}},
		{KindString, []Value{NewString("hi"), NewString(""), Null(), NewString("zz"), NewBool(true)}},
	}
	for _, c := range cols {
		kinds := slices.Repeat([]Kind{c.kind}, len(c.vals))
		rec := AppendRecord(nil, kinds, c.vals)
		got, err := DecodeRecordInto(nil, kinds, rec)
		if err != nil || !reflect.DeepEqual(got, c.vals) {
			t.Fatalf("%v column %v decodes to %v, %v", c.kind, c.vals, got, err)
		}
		for i, v := range c.vals {
			tagged := rec[i/8]&(1<<(i%8)) != 0
			if tagged != (v.IsNull() || v.Kind != c.kind) {
				t.Fatalf("%v column: field %d (%v %v) tagged=%v", c.kind, i, v.Kind, v, tagged)
			}
			if w, err := decodeWalked(rec, kinds, i); err != nil || w != v {
				t.Fatalf("%v column: walk to field %d = %v, %v; want %v", c.kind, i, w, err, v)
			}
		}
		var plain []Value
		for _, v := range c.vals {
			if v.Kind == c.kind {
				plain = append(plain, v)
			}
		}
		if rec := AppendRecord(nil, kinds[:len(plain)], plain); rec[0] != 0 {
			t.Fatalf("%v column of its own kind has bitmap %08b", c.kind, rec[0])
		}
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
	row := []Value{NewInt(7), NewString("abcdef"), NewFloat(2.5), Null()}
	kinds := []Kind{KindInt, KindString, KindFloat, KindDate}
	rec := AppendRecord(nil, kinds, row)
	// Every strict prefix lacks a field or part of one and must fail cleanly —
	// never panic, never decode short.
	for cut := 0; cut < len(rec); cut++ {
		if got, err := DecodeRecordInto(nil, kinds, rec[:cut]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte record decoded to %v", cut, len(rec), got)
		}
	}
	if _, err := DecodeRecordInto(nil, kinds, append(slices.Clone(rec), 0)); err == nil {
		t.Fatal("a record with a trailing byte decoded without error")
	}
	// An unknown kind byte in a tagged field.
	bad := slices.Clone(rec)
	bad[len(bad)-1] = 0x7E
	if _, err := DecodeRecordInto(nil, kinds, bad); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
	// A string length near 2^64 overflows a naive off+int(length) bounds
	// check into a negative slice index; every decoder must error, not panic.
	huge := []byte{0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 'x'}
	if _, err := DecodeRecordInto(nil, []Kind{KindString}, huge); err == nil {
		t.Fatal("record decode accepted overflowing string length")
	}
	if _, err := decodeWalked(huge, []Kind{KindString}, 0); err == nil {
		t.Fatal("walker accepted overflowing string length")
	}
	// The self-describing tuple decoder must reject an absurd field count
	// before sizing the row — a corrupt header must never drive a giant
	// allocation — and the same overflowing string length.
	if _, _, err := DecodeTuple(append([]byte{0xFF, 0xFF, 0xFF, 0x7F}, byte(KindInt), 2)); err == nil {
		t.Fatal("tuple decode accepted absurd field count")
	}
	if _, _, err := DecodeTuple(append([]byte{1, byte(KindString)}, huge[1:]...)); err == nil {
		t.Fatal("tuple decode accepted overflowing string length")
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

// fuzzRow derives a row from fuzz bytes: each byte picks a kind and seeds the
// value; string lengths come from the following bytes.
func fuzzRow(data []byte) []Value {
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
			end := min(i+1+int(b%17), len(data))
			row = append(row, NewString(string(data[i+1:end])))
			i = end - 1
		case 4:
			row = append(row, NewDate(int64(b)-128))
		case 5:
			row = append(row, NewBool(b&1 == 1))
		}
	}
	return row
}

// FuzzTupleRoundTrip encodes a tuple derived from fuzz input and checks that
// DecodeTuple (the meta's min/max codec) returns it bit for bit, consuming
// every byte, and that the same row as a record under its own kinds decodes
// to the same values whole and walked to each field.
func FuzzTupleRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 128, 7, 9, 200, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		row := fuzzRow(data)
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
		kinds := ownKinds(row)
		rec := AppendRecord(nil, kinds, row)
		whole, err := DecodeRecordInto(nil, kinds, rec)
		if err != nil || !rowsEqualNaN(full, whole) {
			t.Fatalf("record %v != tuple %v (%v)", whole, full, err)
		}
		for i := range row {
			if v, err := decodeWalked(rec, kinds, i); err != nil || !valueEqualNaN(v, full[i]) {
				t.Fatalf("walk to field %d = %v, %v; want %v", i, v, err, full[i])
			}
		}
	})
}

// FuzzDecodeProjected feeds arbitrary bytes to the projected (walked) and the
// whole-record decoder under ncols declared kinds: where the whole decode
// succeeds, walking to each field must decode the same value, and a walk over
// any bytes must end without panicking or reading past them.
func FuzzDecodeProjected(f *testing.F) {
	f.Add(AppendRecord(nil, []Kind{KindInt, KindFloat, KindString}, []Value{NewInt(1), NewFloat(2), NewString("ab")}), uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, ncols uint8) {
		kinds := make([]Kind, ncols%24)
		for i := range kinds {
			kinds[i] = KindInt + Kind(i%5)
		}
		if full, err := DecodeRecordInto(nil, kinds, data); err == nil {
			for i := range kinds {
				if v, err := decodeWalked(data, kinds, i); err != nil || !valueEqualNaN(v, full[i]) {
					t.Fatalf("col %d: walked %v, %v; full %v", i, v, err, full[i])
				}
			}
		}
		var w RecordWalker
		if w.Reset(data, kinds) == nil {
			for i := range kinds {
				var v Value
				if _, _, err := w.StringField(&v); err != nil {
					break
				}
				if w.off > len(data) {
					t.Fatalf("field %d ends at byte %d of %d", i, w.off, len(data))
				}
			}
		}
	})
}

// FuzzRecordRoundTrip encodes a row derived from fuzz input under declared
// kinds derived from more of it: the record decodes back bit for bit, whole
// and by walking to each field; a field is tagged exactly when it is NULL or
// of another kind than declared; and arbitrary bytes decoded as a record
// under those kinds never panic or read past their end, and whatever they
// decode to encodes and decodes back to itself.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 2})
	f.Add([]byte{0}, []byte{})
	f.Add([]byte{255, 0, 128, 7, 9, 200, 13}, []byte{3, 3, 4})
	f.Add(AppendRecord(nil, []Kind{KindInt, KindString, KindFloat}, []Value{NewInt(1), NewString("ab"), NewFloat(2)}), []byte{1, 3, 2})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0xFF, 0xFF, 0xFF}, []byte{5, 0})
	f.Fuzz(func(t *testing.T, data, kindBytes []byte) {
		row := fuzzRow(data)
		kinds := make([]Kind, len(row))
		for i := range kinds {
			kinds[i] = row[i].Kind
			if len(kindBytes) > 0 {
				kinds[i] = Kind(kindBytes[i%len(kindBytes)] % 6)
			}
		}
		rec := AppendRecord(nil, kinds, row)
		full, err := DecodeRecordInto(nil, kinds, rec)
		if err != nil || !rowsEqualNaN(row, full) {
			t.Fatalf("round trip %v under %v -> %v, %v", row, kinds, full, err)
		}
		for i, v := range row {
			tagged := rec[i/8]&(1<<(i%8)) != 0
			if tagged != (v.IsNull() || v.Kind != kinds[i]) {
				t.Fatalf("field %d (%v %v declared %v) tagged=%v", i, v.Kind, v, kinds[i], tagged)
			}
			if got, err := decodeWalked(rec, kinds, i); err != nil || !valueEqualNaN(got, v) {
				t.Fatalf("walk to field %d = %v, %v; want %v", i, got, err, v)
			}
		}

		// Arbitrary bytes as a record under the same kinds.
		got, err := DecodeRecordInto(nil, kinds, data)
		if err == nil {
			again, err := DecodeRecordInto(nil, kinds, AppendRecord(nil, kinds, got))
			if err != nil || !rowsEqualNaN(again, got) {
				t.Fatalf("%x decodes to %v, which re-encodes to %v, %v", data, got, again, err)
			}
		}
		var w RecordWalker
		if w.Reset(data, kinds) == nil {
			var v Value
			for i := range kinds {
				if err := w.DecodeField(&v); err != nil {
					break
				}
				if w.off > len(data) {
					t.Fatalf("field %d ends at byte %d of %d", i, w.off, len(data))
				}
			}
		}
	})
}

// skipByBytes is the byte loop RecordWalker.Skip replaces on a plain record:
// one skipBody per field, -1 once a field is corrupt.
func skipByBytes(src []byte, off int, kinds []Kind) int {
	for _, k := range kinds {
		if off < 0 {
			break
		}
		off = skipBody(src, off, k)
	}
	return off
}

// FuzzRecordWalkerSkip holds the word-at-a-time skip of a plain record's
// numeric runs to the byte loop: arbitrary bytes behind an all-zero bitmap,
// under arbitrary declared kinds, skipped in the chunk sizes steps names (the
// rest in one final skip), must end every chunk at the byte loop's offset or
// fail exactly where the byte loop finds a corrupt field.
func FuzzRecordWalkerSkip(f *testing.F) {
	f.Add([]byte{0x80, 0x80}, []byte{1}, []byte{1})                                      // a truncated varint
	f.Add(append(bytes.Repeat([]byte{0x80}, 10), 0x01), []byte{1}, []byte{1})            // an 11-byte varint
	f.Add(append(bytes.Repeat([]byte{0x80}, 10), 0x01, 0, 0, 0), []byte{1, 1}, []byte{}) // the same inside a word
	f.Add(append(bytes.Repeat([]byte{0xFF}, 9), 0x01, 5, 6), []byte{2, 1, 4}, []byte{2})
	lineitem := []Value{
		NewInt(123456), NewInt(77), NewInt(12), NewInt(3),
		NewFloat(31), NewFloat(45123.25), NewFloat(0.04), NewFloat(0.02),
		NewString("A"), NewString("F"),
		NewDate(9200), NewDate(9230), NewDate(9237), NewString("TRUCK"),
	}
	kinds := ownKinds(lineitem)
	kindBytes := make([]byte, len(kinds))
	for i, k := range kinds {
		kindBytes[i] = byte(k)
	}
	f.Add(AppendRecord(nil, kinds, lineitem)[2:], kindBytes, []byte{5, 4, 1})
	f.Fuzz(func(t *testing.T, body, kindBytes, steps []byte) {
		kinds := make([]Kind, len(kindBytes))
		for i, b := range kindBytes {
			kinds[i] = Kind(b % 6)
		}
		src := append(make([]byte, (len(kinds)+7)/8), body...)
		var w RecordWalker
		if err := w.Reset(src, kinds); err != nil {
			t.Fatal(err)
		}
		at := 0
		for i := 0; i <= len(steps) && at < len(kinds); i++ {
			n := len(kinds) - at
			if i < len(steps) {
				n = min(n, int(steps[i]%12))
			}
			want := skipByBytes(src, w.off, kinds[at:at+n])
			err := w.Skip(n)
			if (err != nil) != (want < 0) || err == nil && w.off != want {
				t.Fatalf("skip of %d fields from field %d of %v in %x: offset %d, err %v; byte loop %d", n, at, kinds, src, w.off, err, want)
			}
			if err != nil {
				return
			}
			at += n
		}
	})
}

// TestRecordWalkerSkipRejectsBadVarints: a varint cut off by the record's
// end and one that runs to eleven bytes are corrupt fields, whether the skip
// meets them in a whole word or in the record's last bytes.
func TestRecordWalkerSkipRejectsBadVarints(t *testing.T) {
	long := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	for name, body := range map[string][]byte{
		"truncated in the tail":        {0x05, 0x80, 0x80},
		"truncated in a word":          append([]byte{0x05, 0x06}, bytes.Repeat([]byte{0x80}, 8)...),
		"eleven bytes in a word":       append([]byte{0x05}, long...),
		"eleven bytes at a word's end": append(bytes.Repeat([]byte{0x05}, 7), long...),
	} {
		kinds := []Kind{KindInt, KindInt, KindDate, KindFloat, KindInt, KindInt, KindInt, KindInt, KindInt}
		src := append([]byte{0, 0}, body...)
		var w RecordWalker
		if err := w.Reset(src, kinds); err != nil {
			t.Fatal(err)
		}
		if err := w.Skip(len(kinds)); err == nil {
			t.Errorf("%s: skip of %x succeeded at offset %d", name, src, w.off)
		}
	}
}

// BenchmarkDecodeRecord decodes a 16-field lineitem-shaped record three ways:
// the whole row, the two fields a projected scan reads (l_extendedprice and
// l_shipdate, walked to past the fields between), and the same projection
// over a record with one NULL, whose set bitmap bit takes the walker off its
// declared-kind loop.
func BenchmarkDecodeRecord(b *testing.B) {
	row := []Value{
		NewInt(123456), NewInt(77), NewInt(12), NewInt(3),
		NewFloat(31), NewFloat(45123.25), NewFloat(0.04), NewFloat(0.02),
		NewString("A"), NewString("F"),
		NewDate(9200), NewDate(9230), NewDate(9237), NewString("TRUCK"),
		NewString("DELIVER IN PERSON"), NewString("carefully packed comment"),
	}
	kinds := ownKinds(row)
	rec := AppendRecord(nil, kinds, row)
	tagged := slices.Clone(row)
	tagged[2] = Null()
	taggedRec := AppendRecord(nil, kinds, tagged)

	b.Run("full", func(b *testing.B) {
		buf := make([]Value, 0, len(row))
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = DecodeRecordInto(buf, kinds, rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	projected := func(b *testing.B, rec []byte) {
		var w RecordWalker
		var price, ship Value
		for i := 0; i < b.N; i++ {
			if err := w.Reset(rec, kinds); err != nil {
				b.Fatal(err)
			}
			if err := w.Skip(5); err != nil {
				b.Fatal(err)
			}
			if err := w.DecodeField(&price); err != nil {
				b.Fatal(err)
			}
			if err := w.Skip(4); err != nil {
				b.Fatal(err)
			}
			if err := w.DecodeField(&ship); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("projected", func(b *testing.B) { projected(b, rec) })
	b.Run("projected-tagged", func(b *testing.B) { projected(b, taggedRec) })
}
