package value

import (
	"encoding/binary"
	"fmt"
)

// Record payloads (record layout v4). A stored record's payload holds the
// values of the columns its key does not, in a form directed by their
// declared kinds (catalog.Layout.PayKinds), which the schema already states
// once for every record:
//
//	bitmap (⌈n/8⌉ bytes; bit i set = field i is tagged) || field 0 || ... || field n-1
//
// An untagged field is the bare body of a value of its declared kind: a
// zigzag varint for INT, DATE and BOOL, the byte-reversed float bits as a
// uvarint for FLOAT (floatTupleBits), uvarint length || contents for a
// string. A tagged field is NULL or a value of another kind — which a column
// takes only while no index stores it in key bytes (catalog.Table.storedRow)
// — written as kind byte || body, EncodeTuple's self-describing field form.
// Nothing else is stored: the field count and kinds are the schema's. A row
// with no NULL and no stray kind, every TPC-H row among them, has an all-zero
// bitmap, and RecordWalker walks it with a straight declared-kind loop.

// AppendRecord appends the record encoding of vals, whose declared kinds are
// kinds (one per value), to dst.
func AppendRecord(dst []byte, kinds []Kind, vals []Value) []byte {
	bitmap := len(dst)
	for range (len(kinds) + 7) / 8 {
		dst = append(dst, 0)
	}
	for i, v := range vals {
		if v.Kind != kinds[i] || v.Kind == KindNull {
			dst[bitmap+i/8] |= 1 << (i % 8)
			dst = append(dst, byte(v.Kind))
		}
		dst = appendBody(dst, v)
	}
	return dst
}

// DecodeRecordInto decodes a whole record under its declared kinds into buf
// when its capacity allows (the result then aliases buf). Bytes past the last
// field are corruption.
func DecodeRecordInto(buf []Value, kinds []Kind, src []byte) ([]Value, error) {
	var w RecordWalker
	if err := w.Reset(src, kinds); err != nil {
		return nil, err
	}
	row := buf[:0]
	if cap(row) < len(kinds) {
		row = make([]Value, 0, len(kinds))
	}
	row = row[:len(kinds)]
	for i := range row {
		k, ok := w.kind()
		if !ok {
			return nil, w.corrupt()
		}
		if w.off = decodeBody(src, w.off, k, &row[i]); w.off < 0 {
			return nil, w.corrupt()
		}
	}
	if w.off != len(src) {
		return nil, fmt.Errorf("value: record of %d fields ends after %d of its %d bytes", len(kinds), w.off, len(src))
	}
	return row, nil
}

// RecordWalker steps through a record field by field without materializing
// the fields it skips: the projected scan decodes the fields a query reads
// and skips the rest. The zero value is empty; Reset positions it at the
// first field.
type RecordWalker struct {
	src   []byte
	kinds []Kind
	off   int  // byte offset of the next field
	i     int  // index of the next field
	plain bool // the bitmap is all zero: every field is a bare body of its declared kind
}

// Reset points the walker at the record src whose declared kinds are kinds.
func (w *RecordWalker) Reset(src []byte, kinds []Kind) error {
	n := (len(kinds) + 7) / 8
	if len(src) < n {
		return fmt.Errorf("value: record of %d bytes has no room for its %d-byte bitmap", len(src), n)
	}
	w.src, w.kinds, w.off, w.i, w.plain = src, kinds, n, 0, true
	for _, b := range src[:n] {
		if b != 0 {
			w.plain = false
		}
	}
	return nil
}

// Skip advances past the next n fields without decoding them. An all-zero
// bitmap takes the declared-kind loop, which never looks at the bitmap and
// skips each run of consecutive numeric fields — one varint each — a word at
// a time (skipUvarints).
func (w *RecordWalker) Skip(n int) error {
	if n > len(w.kinds)-w.i {
		return fmt.Errorf("value: skip of %d fields past the record's %d", n, len(w.kinds))
	}
	if w.plain {
		off := w.off
		kinds := w.kinds[w.i : w.i+n]
		for i := 0; i < len(kinds) && off >= 0; {
			if !isVarintKind(kinds[i]) {
				off = skipBody(w.src, off, kinds[i])
				i++
				continue
			}
			run := i + 1
			for run < len(kinds) && isVarintKind(kinds[run]) {
				run++
			}
			off = skipUvarints(w.src, off, run-i)
			i = run
		}
		if off < 0 {
			return w.corrupt()
		}
		w.off, w.i = off, w.i+n
		return nil
	}
	for ; n > 0; n-- {
		k, ok := w.kind()
		off := -1
		if ok {
			off = skipBody(w.src, w.off, k)
		}
		if off < 0 {
			return w.corrupt()
		}
		w.off = off
	}
	return nil
}

// DecodeField decodes the next field into *v and advances past it.
func (w *RecordWalker) DecodeField(v *Value) error {
	if k, ok := w.kind(); ok {
		if off := decodeBody(w.src, w.off, k, v); off >= 0 {
			w.off = off
			return nil
		}
	}
	return w.corrupt()
}

// StringField decodes the next field in one parse: a string's contents are
// returned as body (aliasing the record, so a caller can intern or stage them
// without allocating) with isStr set, and any other field is decoded into *v.
func (w *RecordWalker) StringField(v *Value) (body []byte, isStr bool, err error) {
	k, ok := w.kind()
	switch {
	case !ok:
	case k == KindString:
		if body, n, ok := stringSpanBody(w.src[w.off:]); ok {
			w.off += n
			return body, true, nil
		}
	default:
		if off := decodeBody(w.src, w.off, k, v); off >= 0 {
			w.off = off
			return nil, false, nil
		}
	}
	return nil, false, w.corrupt()
}

// kind returns the next field's kind — its declared one, or the kind byte of
// a tagged field, which it steps over — and moves the walker to that field.
// ok is false when there is no next field or its kind byte is missing.
func (w *RecordWalker) kind() (k Kind, ok bool) {
	i := w.i
	if i >= len(w.kinds) {
		return KindNull, false
	}
	w.i++
	if w.plain || w.src[i/8]&(1<<(i%8)) == 0 {
		return w.kinds[i], true
	}
	if w.off >= len(w.src) {
		return KindNull, false
	}
	w.off++
	return Kind(w.src[w.off-1]), true
}

// corrupt is the error of a walk that found no well-formed field where the
// schema puts one.
func (w *RecordWalker) corrupt() error {
	return fmt.Errorf("value: record field %d of %d is truncated or corrupt", w.i, len(w.kinds))
}

// appendBody appends the body of v's field form: nothing for NULL.
func appendBody(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return binary.AppendVarint(dst, v.I)
	case KindFloat:
		return binary.AppendUvarint(dst, floatTupleBits(v.F))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	}
	return dst
}

// decodeBody decodes the field body of kind k at src[off:] into *v and
// returns the offset past it, or -1 when there is no well-formed one.
func decodeBody(src []byte, off int, k Kind, v *Value) int {
	switch k {
	case KindNull:
		*v = Value{}
		return off
	case KindInt, KindDate, KindBool:
		if iv, sz := binary.Varint(src[off:]); sz > 0 {
			*v = Value{Kind: k, I: iv}
			return off + sz
		}
	case KindFloat:
		if fb, sz := binary.Uvarint(src[off:]); sz > 0 {
			*v = Value{Kind: KindFloat, F: floatFromTupleBits(fb)}
			return off + sz
		}
	case KindString:
		if body, n, ok := stringSpanBody(src[off:]); ok {
			*v = Value{Kind: KindString, S: string(body)}
			return off + n
		}
	}
	return -1
}

// isVarintKind reports whether a bare body of kind k is one varint.
func isVarintKind(k Kind) bool {
	return k == KindInt || k == KindDate || k == KindBool || k == KindFloat
}

// skipBody returns the offset past the field body of kind k at src[off:], or
// -1 when there is no well-formed one.
func skipBody(src []byte, off int, k Kind) int {
	switch k {
	case KindNull:
		return off
	case KindInt, KindDate, KindBool, KindFloat:
		return skipUvarint(src, off)
	case KindString:
		if _, n, ok := stringSpanBody(src[off:]); ok {
			return off + n
		}
	}
	return -1
}
