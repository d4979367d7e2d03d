package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Binary encoding of values and tuples.
//
// Four encodings are provided:
//
//   - AppendRecord/RecordWalker (record.go): the payload of a stored record —
//     clustered and index leaf payloads — directed by the
//     columns' declared kinds. It is not order-preserving.
//   - EncodeTuple/DecodeTuple: a compact, self-describing row format, for
//     values with no declared kind (the catalog meta's column min/max).
//   - AppendStoredKeyValue/DecodeKeyValue: the order-preserving stored-key
//     format of B+-tree keys, directed by the column's declared kind, so a
//     value is as narrow as its kind allows. Byte-wise comparison agrees with
//     Compare among values of one kind (and NULL).
//   - EncodeKey/AppendKeyValue: the in-memory cross-kind grouping and join
//     encoding, where no kind is declared and 1 and 1.0 must share bytes. It
//     never reaches a page.

// EncodeTuple appends the compact encoding of row to dst and returns the
// extended slice.
func EncodeTuple(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = appendBody(append(dst, byte(v.Kind)), v)
	}
	return dst
}

// DecodeTuple decodes a tuple previously produced by EncodeTuple. It returns
// the decoded row and the number of bytes consumed.
func DecodeTuple(src []byte) ([]Value, int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("value: corrupt tuple header")
	}
	// Every field occupies at least one byte, so a count exceeding the
	// remaining bytes is corruption — reject it before sizing the row, or a
	// corrupt header could demand an arbitrarily large allocation.
	if n > uint64(len(src)-sz) {
		return nil, 0, fmt.Errorf("value: corrupt tuple header: %d fields in %d bytes", n, len(src)-sz)
	}
	off := sz
	row := make([]Value, n)
	for i := range row {
		if off >= len(src) {
			return nil, 0, fmt.Errorf("value: truncated tuple at field %d", i)
		}
		if off = decodeBody(src, off+1, Kind(src[off]), &row[i]); off < 0 {
			return nil, 0, fmt.Errorf("value: corrupt tuple field %d", i)
		}
	}
	return row, off, nil
}

// Key class bytes: the first byte of every encoded key value, in both key
// encodings, which share the NULL (lowest in every kind) and string forms.
// They differ in their numbers: the in-memory encoding writes every numeric
// value as keyTagNumber and the cross-kind float64 sort word, the stored one
// writes a FLOAT as keyClassFloat and that word but an INT, DATE or BOOL as a
// length class around keyClassIntZero and its minimal magnitude. Every class
// byte is below 0xFF, so a run of 0xFF bytes bounds any key suffix from above
// (catalog's keySentinel).
const (
	keyTagNull   byte = 0x01
	keyTagNumber byte = 0x02
	keyTagString byte = 0x03

	keyClassFloat byte = 0x02
	// An integer-family stored key value is keyClassIntZero for 0,
	// keyClassIntZero+n followed by the n-byte big-endian magnitude for a
	// positive value and keyClassIntZero-n followed by the low n bytes of the
	// two's complement form for a negative one (n minimal, 1..8): longer
	// negatives sort first, then shorter ones, zero, and positives by length.
	keyClassIntZero byte = 0x18
)

// EncodeKey appends the in-memory order-preserving encoding of the composite
// key to dst: the grouping key of the hash aggregate and, each number cut
// after its NumericSortKey word, the join key of the hash joins. Columns
// carry no declared kind there, and Compare-equal values of different kinds
// (1 and 1.0) must land on the same bytes. For any
// two keys a and b of the same arity,
// bytes.Compare(EncodeKey(nil,a), EncodeKey(nil,b)) has the same sign as the
// column-wise Compare of a and b. Stored keys use AppendStoredKeyValue.
func EncodeKey(dst []byte, key []Value) []byte {
	for _, v := range key {
		dst = AppendKeyValue(dst, v)
	}
	return dst
}

// appendKeyString appends a string's key form: the tag, the contents with
// 0x00 escaped as 0x00 0xFF, and the terminator 0x00 0x00, so that a prefix
// orders before a longer string.
func appendKeyString(dst []byte, s string) []byte {
	dst = append(dst, keyTagString)
	for i := 0; i < len(s); i++ {
		if b := s[i]; b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, 0x00)
}

// AppendStoredKeyValue appends the stored-key encoding of one key column's
// value: what a B+-tree key holds and DecodeKeyValue reads back under the
// column's declared kind. v must already be of that kind or NULL
// (CoerceKeyValue). Within one kind, bytes.Compare of two encodings has the
// sign of Compare of the values, NULL lowest, and no encoding is a prefix of
// another, so concatenated columns compare column by column. An INT, DATE or
// BOOL takes 1 byte for 0, 2 below 256, 3 below 65,536 ... 9 at most, exact
// over all of int64; a FLOAT takes 9 (negative zero stored as +0.0); a string
// its length plus 3 and one more per 0x00 byte.
func AppendStoredKeyValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, keyTagNull)
	case KindString:
		return appendKeyString(dst, v.S)
	case KindFloat:
		dst = append(dst, keyClassFloat)
		return binary.BigEndian.AppendUint64(dst, NumericSortKey(v))
	default:
		u := uint64(v.I)
		class := keyClassIntZero
		var n int
		switch {
		case v.I > 0:
			n = (bits.Len64(u) + 7) / 8
			class += byte(n)
		case v.I < 0:
			n = max(1, (bits.Len64(^u)+7)/8)
			class -= byte(n)
		}
		dst = append(dst, class)
		for shift := 8 * (n - 1); shift >= 0; shift -= 8 {
			dst = append(dst, byte(u>>shift))
		}
		return dst
	}
}

// AppendKeyValue appends the in-memory encoding of a single value — one
// column's contribution to EncodeKey — so callers composing keys column by
// column (hash joins, aggregation) avoid building a temporary key slice.
func AppendKeyValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, keyTagNull)
	case KindString:
		return appendKeyString(dst, v.S)
	default:
		dst = append(dst, keyTagNumber)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], NumericSortKey(v))
		dst = append(dst, buf[:]...)
		// Typed integer suffix: once |f| reaches 2^53 the float64 word stops
		// distinguishing adjacent integers, so an 8-byte order-preserving
		// int64 follows the word. The word still dominates the byte order
		// (it comes first and is fixed width); the suffix only breaks ties
		// among values sharing a word, which keeps int-int comparison exact
		// at any magnitude. Floats carry their saturated integer value so a
		// float and the integer it represents exactly still encode
		// identically. The suffix condition depends only on the word, so
		// decoders know whether one follows without a flag byte.
		f := v.Float()
		if keyNeedsIntSuffix(f) {
			i := v.I
			if v.Kind == KindFloat {
				i = saturatingInt64(f)
			}
			binary.BigEndian.PutUint64(buf[:], uint64(i)^(1<<63))
			dst = append(dst, buf[:]...)
		}
		return dst
	}
}

// keyNeedsIntSuffix reports whether a numeric key value whose float64 form is
// f carries the 8-byte integer suffix. The threshold is inclusive: at exactly
// ±2^53 the word is still exact, but 2^53+1 rounds onto the same word, so the
// suffix must already be present for the tie to break. NaN never takes a
// suffix (every comparison below is false).
func keyNeedsIntSuffix(f float64) bool {
	return f >= 1<<53 || f <= -(1<<53)
}

// saturatingInt64 converts f to int64, clamping values outside the
// representable range (±Inf included) to the nearest bound.
func saturatingInt64(f float64) int64 {
	// The constant converts to float64 2^63 exactly, so f >= it catches every
	// float at or beyond the first unrepresentable integer.
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(f)
}

// NumericSortKey returns the order-preserving 64-bit word a numeric value
// (INT, FLOAT, DATE, BOOL) contributes to the in-memory EncodeKey — and a
// FLOAT to its stored key: the sortable form of its float64 value, with the
// sign bit flipped for non-negatives and the whole word complemented for
// negatives. Below ±2^53 two numeric values have equal words exactly when
// they encode identically, which lets the hash joins key by this word
// instead of the full encoded key; from ±2^53 on adjacent integers share a
// word and EncodeKey tells them apart by its integer suffix. Negative zero
// normalizes to +0.0 first: Compare orders the two equal, so they must share
// a key word.
func NumericSortKey(v Value) uint64 {
	f := v.Float()
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if bits>>63 == 0 {
		return bits | 1<<63
	}
	return ^bits
}

// RowSize returns the number of bytes EncodeTuple would use for row, useful
// for page space accounting without allocating: RowHeaderSize(len(row)) plus
// each value's FieldSize.
func RowSize(row []Value) int {
	size := RowHeaderSize(len(row))
	for _, v := range row {
		size += FieldSize(v)
	}
	return size
}

// RowHeaderSize is the part of RowSize that encodes a row's length n.
func RowHeaderSize(n int) int { return uvarintLen(uint64(n)) }

// FieldSize is one value's part of RowSize: its kind byte and its body.
func FieldSize(v Value) int {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return 1 + varintLen(v.I)
	case KindFloat:
		return 1 + uvarintLen(floatTupleBits(v.F))
	case KindString:
		return 1 + uvarintLen(uint64(len(v.S))) + len(v.S)
	}
	return 1
}

// floatTupleBits is the varint payload of a FLOAT tuple field: the float64
// bit pattern byte-reversed, so the mantissa's trailing zero bytes — present
// in nearly every real-world double (prices, quantities, rates) — land in the
// varint's high positions and drop out. 25.0 encodes in 3 bytes instead of
// 10, and skipping or decoding a float field runs a 3-iteration varint loop
// instead of 10. The reversal is its own inverse and bijective, so arbitrary
// bit patterns (NaN payloads included) still round-trip exactly.
func floatTupleBits(f float64) uint64 {
	return bits.ReverseBytes64(math.Float64bits(f))
}

// floatFromTupleBits inverts floatTupleBits.
func floatFromTupleBits(u uint64) float64 {
	return math.Float64frombits(bits.ReverseBytes64(u))
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// CloneRow returns a copy of row; values themselves are immutable so a
// shallow copy of the slice is sufficient.
func CloneRow(row []Value) []Value {
	out := make([]Value, len(row))
	copy(out, row)
	return out
}
