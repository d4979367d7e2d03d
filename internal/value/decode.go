package value

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Projection-aware tuple decoding. DecodeTupleInto materializes every field
// of a stored tuple; the scan hot paths instead walk the encoding with a
// TupleWalker, varint-skipping the fields a query never touches, and hand the
// surviving fields' byte spans to kind-specialized decoders that append
// straight into column storage. A 2-of-16-column scan decodes 2 fields and
// skips 14 without constructing a single intermediate Value.

// TupleWalker steps over an encoded tuple (EncodeTuple format) field by
// field without materializing values. The zero value is empty; Reset
// positions it at the first field of a tuple.
type TupleWalker struct {
	src []byte
	off int
	n   int
}

// Reset points the walker at the tuple encoded in src and parses its header.
func (w *TupleWalker) Reset(src []byte) error {
	var n uint64
	var sz int
	if len(src) > 0 && src[0] < 0x80 {
		// Single-byte field count — every tuple under 128 columns.
		n, sz = uint64(src[0]), 1
	} else if n, sz = binary.Uvarint(src); sz <= 0 {
		return fmt.Errorf("value: corrupt tuple header")
	}
	// Every field takes at least one byte, so a field count exceeding the
	// remaining bytes is corrupt; rejecting it here bounds downstream loops.
	if n > uint64(len(src)-sz) {
		return fmt.Errorf("value: tuple header claims %d fields in %d bytes", n, len(src)-sz)
	}
	w.src, w.off, w.n = src, sz, int(n)
	return nil
}

// NumFields returns the field count from the tuple header.
func (w *TupleWalker) NumFields() int { return w.n }

// Bytes returns the number of bytes consumed so far (the full tuple length
// once every field has been walked).
func (w *TupleWalker) Bytes() int { return w.off }

// stringSpanBody extracts the contents of an encoded string field body (the
// bytes after the kind byte: uvarint length || contents), returning the
// content bytes, the total body size consumed, and whether the body was well
// formed. The bound check runs in uint64 because a corrupt length near 2^64
// would overflow the off+int(length) form into a negative bound and a slice
// panic — this is the single fuzz-hardened home of that check; every string
// decode path (tuple decode, field decode, span decode, skip) goes through it.
func stringSpanBody(b []byte) (body []byte, n int, ok bool) {
	if len(b) > 0 && b[0] < 0x80 {
		// Single-byte length — every string under 128 bytes.
		length := int(b[0])
		if len(b)-1 < length {
			return nil, 0, false
		}
		return b[1 : 1+length], 1 + length, true
	}
	length, sz := binary.Uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < length {
		return nil, 0, false
	}
	return b[sz : sz+int(length)], sz + int(length), true
}

// skipUvarint advances past one varint/uvarint starting at off, returning the
// new offset or -1 on corrupt/truncated input.
func skipUvarint(src []byte, off int) int {
	end := off + binary.MaxVarintLen64
	if end > len(src) {
		end = len(src)
	}
	for i := off; i < end; i++ {
		if src[i] < 0x80 {
			return i + 1
		}
	}
	return -1
}

// Skip advances past the next n fields without decoding them: integer-family
// and float fields skip their varint, string fields skip length+bytes, nulls
// are a bare kind byte. The offsets live in locals so the per-field loop
// stays register-resident — this is the projected scan's per-row gap cost.
func (w *TupleWalker) Skip(n int) error {
	src := w.src
	off := w.off
	for ; n > 0; n-- {
		if off >= len(src) {
			return fmt.Errorf("value: truncated tuple")
		}
		kind := Kind(src[off])
		off++
		switch kind {
		case KindNull:
		case KindInt, KindDate, KindBool, KindFloat:
			start := off
			for {
				if off >= len(src) || off-start >= binary.MaxVarintLen64 {
					return fmt.Errorf("value: corrupt varint field")
				}
				b := src[off]
				off++
				if b < 0x80 {
					break
				}
			}
		case KindString:
			_, n, ok := stringSpanBody(src[off:])
			if !ok {
				return fmt.Errorf("value: corrupt string field")
			}
			off += n
		default:
			return fmt.Errorf("value: unknown kind %d", kind)
		}
	}
	w.off = off
	return nil
}

// DecodeField decodes the next field into *v and advances past it — the
// fused single-parse form of the typed span decoders, used by the batch fill
// so each projected field's bytes are read exactly once (FieldSpan + a span
// decoder would parse the varint twice and round-trip the span through
// memory).
func (w *TupleWalker) DecodeField(v *Value) error {
	src := w.src
	off := w.off
	if off >= len(src) {
		return fmt.Errorf("value: truncated tuple")
	}
	kind := Kind(src[off])
	off++
	switch kind {
	case KindNull:
		*v = Value{}
	case KindInt, KindDate, KindBool:
		iv, sz := binary.Varint(src[off:])
		if sz <= 0 {
			return fmt.Errorf("value: corrupt int field")
		}
		off += sz
		*v = Value{Kind: kind, I: iv}
	case KindFloat:
		fb, sz := binary.Uvarint(src[off:])
		if sz <= 0 {
			return fmt.Errorf("value: corrupt float field")
		}
		off += sz
		*v = Value{Kind: KindFloat, F: floatFromTupleBits(fb)}
	case KindString:
		body, n, ok := stringSpanBody(src[off:])
		if !ok {
			return fmt.Errorf("value: corrupt string field")
		}
		*v = Value{Kind: KindString, S: string(body)}
		off += n
	default:
		return fmt.Errorf("value: unknown kind %d", kind)
	}
	w.off = off
	return nil
}

// StringBody decodes the next field in one parse when it is a string,
// returning its content bytes (aliasing the tuple's backing buffer); for any
// other kind it returns the raw field span instead. It is the string-column
// fill primitive: the common case costs a single stringSpanBody parse where
// FieldSpan + StringFieldBody would parse the length twice.
func (w *TupleWalker) StringBody() (body []byte, isStr bool, sp []byte, err error) {
	src := w.src
	off := w.off
	if off >= len(src) {
		return nil, false, nil, fmt.Errorf("value: truncated tuple")
	}
	if Kind(src[off]) == KindString {
		b, n, ok := stringSpanBody(src[off+1:])
		if !ok {
			return nil, false, nil, fmt.Errorf("value: corrupt string field")
		}
		w.off = off + 1 + n
		return b, true, nil, nil
	}
	sp, err = w.FieldSpan()
	return nil, false, sp, err
}

// FieldSpan returns the raw encoded bytes of the next field — kind byte plus
// body — and advances past it. The span aliases the tuple's backing buffer.
func (w *TupleWalker) FieldSpan() ([]byte, error) {
	start := w.off
	if err := w.Skip(1); err != nil {
		return nil, err
	}
	return w.src[start:w.off], nil
}

// decodeFieldSpan decodes one raw field span (as returned by FieldSpan) into
// a Value — the generic fallback behind the typed decoders. An empty span
// decodes as NULL: the batch fill emits nil spans for ordinals past a tuple's
// field count, mirroring DecodeProjectedInto's past-end convention.
func decodeFieldSpan(sp []byte) (Value, error) {
	if len(sp) == 0 {
		return Null(), nil
	}
	kind := Kind(sp[0])
	switch kind {
	case KindNull:
		return Null(), nil
	case KindInt, KindDate, KindBool:
		iv, sz := binary.Varint(sp[1:])
		if sz <= 0 {
			return Null(), fmt.Errorf("value: corrupt int field")
		}
		return Value{Kind: kind, I: iv}, nil
	case KindFloat:
		fb, sz := binary.Uvarint(sp[1:])
		if sz <= 0 {
			return Null(), fmt.Errorf("value: corrupt float field")
		}
		return NewFloat(floatFromTupleBits(fb)), nil
	case KindString:
		body, _, ok := stringSpanBody(sp[1:])
		if !ok {
			return Null(), fmt.Errorf("value: corrupt string field")
		}
		return NewString(string(body)), nil
	default:
		return Null(), fmt.Errorf("value: unknown kind %d", kind)
	}
}

// DecodeInt64s appends one decoded value per field span to dst, specialized
// for an integer-family column (INT, DATE, BOOL): spans whose kind byte
// matches take a tight varint loop, anything else (NULLs, mixed kinds) falls
// back to the generic decoder. It is the batch fill primitive for integer
// columns: no intermediate row, no per-field dispatch beyond one byte test.
func DecodeInt64s(dst []Value, kind Kind, spans [][]byte) ([]Value, error) {
	for _, sp := range spans {
		if len(sp) > 1 && Kind(sp[0]) == kind {
			iv, sz := binary.Varint(sp[1:])
			if sz > 0 {
				dst = append(dst, Value{Kind: kind, I: iv})
				continue
			}
		}
		v, err := decodeFieldSpan(sp)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// DecodeFloat64s appends one decoded value per field span to dst, specialized
// for a FLOAT column.
func DecodeFloat64s(dst []Value, spans [][]byte) ([]Value, error) {
	for _, sp := range spans {
		if len(sp) > 1 && Kind(sp[0]) == KindFloat {
			fb, sz := binary.Uvarint(sp[1:])
			if sz > 0 {
				dst = append(dst, Value{Kind: KindFloat, F: floatFromTupleBits(fb)})
				continue
			}
		}
		v, err := decodeFieldSpan(sp)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// DecodeStrings appends one decoded value per field span to dst, specialized
// for a STRING column. The string contents are copied out of the spans (the
// spans alias page memory; the produced Values must not).
func DecodeStrings(dst []Value, spans [][]byte) ([]Value, error) {
	for _, sp := range spans {
		if len(sp) > 1 && Kind(sp[0]) == KindString {
			if body, _, ok := stringSpanBody(sp[1:]); ok {
				dst = append(dst, Value{Kind: KindString, S: string(body)})
				continue
			}
		}
		v, err := decodeFieldSpan(sp)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// DecodeStringsArena is DecodeStrings staging string contents into arena
// instead of allocating one Go string per value: each produced string Value
// is a placeholder the caller must resolve after arena.Seal() (see
// StringArena). Non-string spans (NULLs, mixed kinds) decode as final values.
func DecodeStringsArena(dst []Value, arena *StringArena, spans [][]byte) ([]Value, error) {
	for _, sp := range spans {
		if len(sp) > 1 && Kind(sp[0]) == KindString {
			if body, _, ok := stringSpanBody(sp[1:]); ok {
				dst = append(dst, arena.Stage(body))
				continue
			}
		}
		v, err := decodeFieldSpan(sp)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// DecodeFieldSpans appends one decoded value per field span to dst with the
// generic per-span decoder — the fill path for columns without a sharper
// declared kind.
func DecodeFieldSpans(dst []Value, spans [][]byte) ([]Value, error) {
	for _, sp := range spans {
		v, err := decodeFieldSpan(sp)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// DecodeProjectedInto decodes only the fields at the ordinals listed in cols
// (strictly ascending) from an encoded tuple, appending them to dst in cols
// order. Unrequested fields are varint-skipped without constructing Values.
// Ordinals beyond the tuple's field count decode as NULL (tuples written
// before a hypothetical schema extension), matching DecodeTupleInto's shape.
func DecodeProjectedInto(dst []Value, src []byte, cols []int) ([]Value, error) {
	var w TupleWalker
	if err := w.Reset(src); err != nil {
		return dst, err
	}
	prev := 0
	for _, ord := range cols {
		if ord >= w.n {
			dst = append(dst, Null())
			continue
		}
		if err := w.Skip(ord - prev); err != nil {
			return dst, err
		}
		sp, err := w.FieldSpan()
		if err != nil {
			return dst, err
		}
		v, err := decodeFieldSpan(sp)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		prev = ord + 1
	}
	return dst, nil
}

// sortKeyToFloat inverts NumericSortKey on a FLOAT: the exact float64 whose
// sortable form is w.
func sortKeyToFloat(w uint64) float64 {
	if w>>63 != 0 {
		return math.Float64frombits(w &^ (1 << 63))
	}
	return math.Float64frombits(^w)
}

// DecodeKeyValue decodes one stored key value (AppendStoredKeyValue) at the
// head of src under the column's declared kind. It returns the value and the
// number of key bytes consumed. Recovery is exact for every value
// CoerceKeyValue lets into a key column; bytes that are no encoding of the
// kind are an error, never a value of another kind.
func DecodeKeyValue(src []byte, kind Kind) (Value, int, error) {
	if len(src) == 0 {
		return Null(), 0, fmt.Errorf("value: empty key")
	}
	if src[0] == keyTagNull {
		return Null(), 1, nil
	}
	switch kind {
	case KindInt, KindDate, KindBool:
		n, neg, err := intKeyLen(src)
		if err != nil {
			return Null(), 0, err
		}
		var u uint64
		if neg {
			u = ^uint64(0)
		}
		for _, b := range src[1:n] {
			u = u<<8 | uint64(b)
		}
		// A full-width magnitude whose sign disagrees with its class encodes
		// nothing (only 8-byte classes can overflow into the sign bit).
		if i := int64(u); (i < 0) == neg && (i != 0 || n == 1) {
			return Value{Kind: kind, I: i}, n, nil
		}
		return Null(), 0, fmt.Errorf("value: corrupt integer key")
	case KindFloat:
		if src[0] != keyClassFloat {
			return Null(), 0, fmt.Errorf("value: key class %#x in a %v key column", src[0], kind)
		}
		if len(src) < 9 {
			return Null(), 0, fmt.Errorf("value: truncated float key")
		}
		return Value{Kind: KindFloat, F: sortKeyToFloat(binary.BigEndian.Uint64(src[1:9]))}, 9, nil
	case KindString:
		body, n, _, err := KeyStringBody(src, nil)
		if err != nil {
			return Null(), 0, err
		}
		return Value{Kind: KindString, S: string(body)}, n, nil
	default:
		return Null(), 0, fmt.Errorf("value: key class %#x in a %v key column", src[0], kind)
	}
}

// intKeyLen parses the class byte of a non-NULL integer-family key value: the
// encoded length (class byte included), checked against len(src), and whether
// the value is negative.
func intKeyLen(src []byte) (n int, neg bool, err error) {
	n = int(src[0]) - int(keyClassIntZero)
	if neg = n < 0; neg {
		n = -n
	}
	if n > 8 {
		return 0, false, fmt.Errorf("value: key class %#x in an integer key column", src[0])
	}
	if n++; len(src) < n {
		return 0, false, fmt.Errorf("value: truncated integer key")
	}
	return n, neg, nil
}

// SkipKeyValue returns the number of key bytes the stored key value at the
// head of src occupies under the column's declared kind, without decoding it.
func SkipKeyValue(src []byte, kind Kind) (int, error) {
	if len(src) == 0 {
		return 0, fmt.Errorf("value: empty key")
	}
	if src[0] == keyTagNull {
		return 1, nil
	}
	switch kind {
	case KindInt, KindDate, KindBool:
		n, _, err := intKeyLen(src)
		return n, err
	case KindFloat:
		if src[0] != keyClassFloat || len(src) < 9 {
			return 0, fmt.Errorf("value: corrupt float key")
		}
		return 9, nil
	case KindString:
		if src[0] != keyTagString {
			break
		}
		for i := 1; i+1 < len(src); i++ {
			if src[i] == 0x00 {
				if src[i+1] == 0x00 {
					return i + 2, nil
				}
				i++ // escaped byte
			}
		}
		return 0, fmt.Errorf("value: unterminated string key")
	}
	return 0, fmt.Errorf("value: key class %#x in a %v key column", src[0], kind)
}

// KeyStringBody parses one stored key value of a declared-STRING column at the
// head of src: isStr is false for NULL, otherwise body is the string's
// contents. n is the number of key bytes consumed. Contents without an escaped
// 0x00 — the common case — alias src; otherwise they are unescaped into
// *scratch (grown as needed, reusable across calls; nil allocates).
func KeyStringBody(src []byte, scratch *[]byte) (body []byte, n int, isStr bool, err error) {
	if len(src) == 0 {
		return nil, 0, false, fmt.Errorf("value: empty key")
	}
	switch src[0] {
	case keyTagNull:
		return nil, 1, false, nil
	case keyTagString:
	default:
		return nil, 0, false, fmt.Errorf("value: key tag %d in a string key column", src[0])
	}
	i := 1 + bytes.IndexByte(src[1:], 0x00)
	if i > 0 && i+1 < len(src) && src[i+1] == 0x00 {
		return src[1:i], i + 2, true, nil // no escapes before the terminator
	}
	var buf []byte
	if scratch != nil {
		buf = (*scratch)[:0]
	}
	for i := 1; i+1 < len(src); i++ {
		b := src[i]
		if b != 0x00 {
			buf = append(buf, b)
			continue
		}
		i++
		switch src[i] {
		case 0x00: // terminator
			if scratch != nil {
				*scratch = buf
			}
			return buf, i + 1, true, nil
		case 0xFF: // escaped 0x00
			buf = append(buf, 0x00)
		default:
			return nil, 0, false, fmt.Errorf("value: corrupt string key escape")
		}
	}
	return nil, 0, false, fmt.Errorf("value: unterminated string key")
}

// CoerceKeyValue returns the form of v that a key column declared as kind k
// stores, so that DecodeKeyValue with k recovers it exactly from the key
// bytes: NULL and values of kind k pass through, -0.0 becomes +0.0 (the two
// compare equal and share a key word), integer-family kinds re-tag, and an
// integral float or exactly representable integer converts across the
// int/float divide. changed reports whether the result differs from v. Any
// other mismatch — a fractional float in an integer column, a string in a
// numeric column or the reverse — is an error: no stored form would compare
// equal to v. The coerced value always encodes to the same key bytes as v.
func CoerceKeyValue(v Value, k Kind) (out Value, changed bool, err error) {
	switch {
	case v.Kind == KindNull:
		return v, false, nil
	case v.Kind == k:
		if k == KindFloat && v.F == 0 && math.Signbit(v.F) {
			return NewFloat(0), true, nil
		}
		return v, false, nil
	case k == KindString || v.Kind == KindString || k == KindNull:
	case k == KindFloat:
		// The range test keeps int64(f) defined: float64 rounds MaxInt64 to 2^63.
		if f := float64(v.I); f < 1<<63 && int64(f) == v.I {
			return NewFloat(f), true, nil
		}
	case v.Kind == KindFloat:
		if v.F == math.Trunc(v.F) && v.F >= -(1<<63) && v.F < 1<<63 {
			return Value{Kind: k, I: int64(v.F)}, true, nil
		}
	default:
		return Value{Kind: k, I: v.I}, true, nil
	}
	return v, false, fmt.Errorf("value: %v value %v cannot be stored in a %v key column", v.Kind, v, k)
}
