package value

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// stringSpanBody extracts the contents of an encoded string field body (the
// bytes after the kind byte: uvarint length || contents), returning the
// content bytes, the total body size consumed, and whether the body was well
// formed. The bound check runs in uint64 because a corrupt length near 2^64
// would overflow the off+int(length) form into a negative bound and a slice
// panic — this is the single fuzz-hardened home of that check; every string
// decode path (tuple and record decode, skip) goes through it.
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

// varintEnds has the high bit of every byte of a word set: a byte of the word
// whose high bit is clear ends a varint.
const varintEnds = 0x8080808080808080

// skipUvarints advances past n consecutive varints starting at off, eight
// bytes at a time, returning the new offset or -1 where skipUvarint would
// fail. A little-endian word's terminator bytes are the set bits of
// ^w & varintEnds: their count is how many varints end in the word, and the
// lowest byte of the word always starts one, so every varint that ends in it
// is at most eight bytes long. A word with no terminator holds eight bytes of
// one varint, which must end in one of the next two bytes (skipUvarint's
// ten-byte rule). The last seven bytes of src, where no whole word is left,
// go through skipUvarint byte by byte.
func skipUvarints(src []byte, off, n int) int {
	for n > 0 && off+8 <= len(src) {
		ends := ^binary.LittleEndian.Uint64(src[off:]) & varintEnds
		switch c := bits.OnesCount64(ends); {
		case c == 0:
			switch {
			case off+8 < len(src) && src[off+8] < 0x80:
				off += 9
			case off+9 < len(src) && src[off+9] < 0x80:
				off += 10
			default:
				return -1
			}
			n--
		case c >= n:
			for ; n > 1; n-- {
				ends &= ends - 1 // drop the lowest terminator
			}
			return off + bits.TrailingZeros64(ends)/8 + 1
		default:
			off += (63-bits.LeadingZeros64(ends))/8 + 1
			n -= c
		}
	}
	for ; n > 0 && off >= 0; n-- {
		off = skipUvarint(src, off)
	}
	return off
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

// KeyNumber returns the number held by the stored key value at the head of
// src under kind: an INT, DATE or BOOL as its integer, a FLOAT as itself. It
// reports false for a NULL, a NaN, a string and bytes that do not decode.
// Over keys of one kind it never decreases as bytes.Compare increases, which
// is what a B+-tree's leaf model asks of it (btree.KeyNumber).
func KeyNumber(src []byte, kind Kind) (float64, bool) {
	if kind != KindInt && kind != KindDate && kind != KindBool && kind != KindFloat {
		return 0, false
	}
	v, _, err := DecodeKeyValue(src, kind)
	switch {
	case err != nil || v.IsNull():
		return 0, false
	case kind == KindFloat:
		return v.F, !math.IsNaN(v.F)
	}
	return float64(v.I), true
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
