package exec

import (
	"slices"

	"oldelephant/internal/catalog"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// colFiller is the projection-aware, column-at-a-time batch fill behind every
// table access path. A stored record keeps each column once — in its tree key
// or in its payload record (catalog.Layout) — so the filler sources every
// projected column from the span that holds it, walking each span at most
// once: unrequested key values and payload fields are skipped, and each
// projected one is decoded in place during the walk (value.DecodeKeyValue for
// key bytes, value.RecordWalker under the declared payload kinds for the
// payload), appending straight into the column buffers that become the
// batch's vectors. A span no projected column lives in is never touched at
// all.
//
// The column buffers are a per-operator arena: a filler owned by a serial
// scan operator survives Open/Close, so a plan-cache lease's later executions
// reuse fully-grown buffers instead of re-paying the 32→1024 growth ramp.
// Recycling is only legal under the batch protocol's retention contract
// (parents must not hold a batch's columns after the following NextBatch).
// A morsel's filler recycles across the morsel's batches when its consumer
// folds each batch before pulling the next (the Morseler contract), and the
// morsel drops its buffers when it closes (release); the fillers of morsels
// whose batches ParallelMerge retains run with recycle off and allocate fresh
// value buffers per batch. Span arenas never escape the filler and are
// always reused while it fills.
type colFiller struct {
	// kinds[i] is the declared kind of output column i, selecting its typed
	// decoder; keyKinds[p] and payKinds[p] are the declared kinds at key and
	// payload position p, which the record's spans are walked under.
	// keyFields and payFields map key positions and payload field positions to
	// output columns, each sorted by position so one forward walk per span
	// collects every projected value.
	kinds     []value.Kind
	keyKinds  []value.Kind
	payKinds  []value.Kind
	keyFields []fillField
	payFields []fillField

	recycle bool
	bufs    [][]value.Value

	// Raw-span staging for fill: one NextSpans call per batch. The spans
	// alias page memory and are consumed before the batch is published.
	// keyScratch holds a key string unescaped out of its key bytes.
	keySpans   [][]byte
	paySpans   [][]byte
	keyScratch []byte

	// String decode state. Every declared-string output column starts in
	// dictionary mode: values intern into a persistent per-column dictionary
	// and the column fills a code buffer instead of a value buffer, so
	// low-cardinality columns publish vector.Dict directly and downstream
	// kernels ride the dictionary fast paths. A column whose distinct count
	// crosses dictMaxDistinct abandons dictionary mode permanently (replaying
	// the current batch's codes) and falls back to the shared byte arena:
	// string contents stage into one recycled buffer, the hot loop appends
	// only a packed 8-byte span per value (no Value write, no write
	// barrier), and wrap pays the batch's single string allocation (Seal)
	// before materializing the column in one pass. strOuts lists the string
	// output columns so wrap touches no others.
	arena   value.StringArena
	strOuts []int
	dicts   []*dictState
	codes   [][]uint32
	spans   [][]uint64
	mixed   [][]value.Value
}

// dictMaxDistinct is the per-column distinct-value budget of dictionary-mode
// string fill. Past it a dictionary stops paying for itself (the map grows,
// codes stop compressing), so the column switches to arena decode for good.
const dictMaxDistinct = 256

// Sentinel span entries for arena-mode string columns. Real packed spans are
// start<<32|len with start < 2^31, so bit 63 is never set by Stage.
const (
	spanNull  = uint64(1) << 63   // a NULL value
	spanMixed = uint64(1)<<63 | 1 // the next value of the column's mixed side list
)

// dictProbeMax is the dictionary size up to which code lookup linearly probes
// the raw key bytes instead of hashing into the interning map. The lowest-
// cardinality columns (status flags, enums — exactly the columns dictionary
// fill exists for) resolve in a handful of short memequals, cheaper than one
// map hash per row.
const dictProbeMax = 8

// dictState is the persistent dictionary of one string output column: the
// interning map and the dictionary values, shared (read-only up to the
// published length) by every Dict vector the column has emitted. Interned
// strings are deep copies, so they outlive pages, batches, and the filler.
// keys runs parallel to vals, holding each string entry's bytes for the
// linear-probe fast path; the NULL entry's key is nil (always non-nil for
// strings — interning allocates through make — so the nil check cannot
// mistake a real empty string for NULL).
type dictState struct {
	codeOf   map[string]uint32
	keys     [][]byte
	vals     []value.Value
	nullCode int32 // code of the interned NULL entry, -1 until first NULL
}

// lookup returns the code of body's interned entry, probing linearly while
// the dictionary is small and hashing once it is not.
func (d *dictState) lookup(body []byte) (uint32, bool) {
	if len(d.keys) <= dictProbeMax {
		for c := range d.keys {
			if d.keys[c] != nil && string(d.keys[c]) == string(body) { // alloc-free compare
				return uint32(c), true
			}
		}
		return 0, false
	}
	code, ok := d.codeOf[string(body)]
	return code, ok
}

// intern adds body's string to the dictionary and returns its new code.
func (d *dictState) intern(body []byte) uint32 {
	k := make([]byte, len(body))
	copy(k, body)
	code := uint32(len(d.vals))
	s := string(k)
	d.vals = append(d.vals, value.NewString(s))
	d.keys = append(d.keys, k)
	d.codeOf[s] = code
	return code
}

// internNull adds the NULL entry (once) and returns its code.
func (d *dictState) internNull() uint32 {
	if d.nullCode < 0 {
		d.nullCode = int32(len(d.vals))
		d.vals = append(d.vals, value.Null())
		d.keys = append(d.keys, nil)
	}
	return uint32(d.nullCode)
}

// fillField maps one projected key or payload position to its output column.
type fillField struct {
	pos, out int
}

// newColFiller builds a filler producing len(kinds) output columns, where
// output column i is the logical column positions[i] of records laid out as
// layout says.
func newColFiller(kinds []value.Kind, layout *catalog.Layout, positions []int, recycle bool) *colFiller {
	f := &colFiller{kinds: kinds, keyKinds: layout.KeyKinds, payKinds: layout.PayKinds, recycle: recycle}
	for i, pos := range positions {
		if p := layout.KeyPos[pos]; p >= 0 {
			f.keyFields = append(f.keyFields, fillField{pos: p, out: i})
		} else {
			f.payFields = append(f.payFields, fillField{pos: layout.PayPos[pos], out: i})
		}
	}
	f.dicts = make([]*dictState, len(kinds))
	f.codes = make([][]uint32, len(kinds))
	f.spans = make([][]uint64, len(kinds))
	f.mixed = make([][]value.Value, len(kinds))
	for i, k := range kinds {
		if k == value.KindString {
			f.strOuts = append(f.strOuts, i)
			f.dicts[i] = &dictState{codeOf: make(map[string]uint32), nullCode: -1}
		}
	}
	// Projections can permute ordinals relative to storage order.
	byPos := func(a, b fillField) int { return a.pos - b.pos }
	slices.SortFunc(f.keyFields, byPos)
	slices.SortFunc(f.payFields, byPos)
	return f
}

// release drops every buffer the filler has grown — column buffers, span
// lists, the string staging arena — keeping only its string dictionaries. The
// next fill grows them again.
func (f *colFiller) release() {
	f.bufs, f.keySpans, f.paySpans, f.keyScratch = nil, nil, nil, nil
	clear(f.codes)
	clear(f.spans)
	clear(f.mixed)
	f.arena = value.StringArena{}
}

// resetBufs readies the column buffers for a fill of n rows: recycle mode
// truncates the arena in place (legal under the batch retention contract),
// fresh mode allocates exactly sized buffers that the batch — and the
// downstream pipe, indefinitely — will own.
func (f *colFiller) resetBufs(n int) {
	if f.recycle && f.bufs != nil {
		for i := range f.bufs {
			f.bufs[i] = f.bufs[i][:0]
		}
		for i := range f.codes {
			f.codes[i] = f.codes[i][:0]
		}
	} else {
		f.bufs = make([][]value.Value, len(f.kinds))
		for i := range f.bufs {
			f.bufs[i] = make([]value.Value, 0, n)
		}
		for i := range f.codes {
			if f.dicts[i] != nil {
				f.codes[i] = make([]uint32, 0, n)
			}
		}
	}
	// The staging buffer, span lists, and mixed side lists are filler-private
	// and never escape (Seal's string and the materialized values do), so
	// they recycle even in morsel mode.
	for _, out := range f.strOuts {
		f.spans[out] = f.spans[out][:0]
		f.mixed[out] = f.mixed[out][:0]
	}
	f.arena.Reset()
}

// decodeKey walks one record's tree key, skipping the values between
// projected key positions and decoding each projected one into its column
// buffer. Bytes past the last projected position — a uniquifier, a locator —
// are never read. Declared-string columns route through fillString so they
// keep the dictionary and arena paths; unescaped contents are copied there.
func (f *colFiller) decodeKey(key []byte) error {
	off, p := 0, 0
	for _, fd := range f.keyFields {
		for ; p < fd.pos; p++ {
			n, err := value.SkipKeyValue(key[off:], f.keyKinds[p])
			if err != nil {
				return err
			}
			off += n
		}
		p++
		kind := f.keyKinds[fd.pos]
		if kind == value.KindString {
			body, n, isStr, err := value.KeyStringBody(key[off:], &f.keyScratch)
			if err != nil {
				return err
			}
			f.fillString(fd.out, body, isStr, value.Value{})
			off += n
			continue
		}
		v, n, err := value.DecodeKeyValue(key[off:], kind)
		if err != nil {
			return err
		}
		f.bufs[fd.out] = append(f.bufs[fd.out], v)
		off += n
	}
	return nil
}

// decodePayload walks one payload record, skipping the gaps between
// projected fields and decoding each projected field directly into its column
// buffer with a single parse. String columns route through fillString
// (dictionary or arena decode); everything else decodes in place.
func (f *colFiller) decodePayload(payload []byte) error {
	var w value.RecordWalker
	if err := w.Reset(payload, f.payKinds); err != nil {
		return err
	}
	prev := 0
	var v value.Value
	for _, fd := range f.payFields {
		if fd.pos > prev {
			if err := w.Skip(fd.pos - prev); err != nil {
				return err
			}
		}
		prev = fd.pos + 1
		if f.kinds[fd.out] == value.KindString {
			body, isStr, err := w.StringField(&v)
			if err != nil {
				return err
			}
			f.fillString(fd.out, body, isStr, v)
			continue
		}
		if err := w.DecodeField(&v); err != nil {
			return err
		}
		f.bufs[fd.out] = append(f.bufs[fd.out], v)
	}
	return nil
}

// fillString appends one string-column value: body is the string contents
// when isStr, v the decoded value otherwise (NULL, or another kind the column
// took while it was no key). Dictionary mode interns the contents and appends
// a code; arena mode stages the contents and appends a placeholder the wrap
// resolves after Seal. Non-string, non-NULL kinds abandon dictionary mode.
func (f *colFiller) fillString(out int, body []byte, isStr bool, v value.Value) {
	if d := f.dicts[out]; d != nil {
		switch {
		case isStr:
			code, ok := d.lookup(body)
			if !ok {
				if len(d.vals) >= dictMaxDistinct {
					f.abandonDict(out)
					break // fall through to the arena path
				}
				code = d.intern(body)
			}
			f.codes[out] = append(f.codes[out], code)
			return
		case v.IsNull():
			f.codes[out] = append(f.codes[out], d.internNull())
			return
		default:
			// A non-string kind stored in a declared-string column: the
			// interning map cannot key it, so the column leaves dictionary
			// mode for good.
			f.abandonDict(out)
		}
	}
	switch {
	case isStr:
		f.spans[out] = append(f.spans[out], f.arena.StagePacked(body))
	case v.IsNull():
		f.spans[out] = append(f.spans[out], spanNull)
	default:
		f.mixed[out] = append(f.mixed[out], v)
		f.spans[out] = append(f.spans[out], spanMixed)
	}
}

// abandonDict permanently switches a string column out of dictionary mode,
// replaying the current batch's codes as plain values into the column's
// value buffer. Interned dictionary strings are deep copies, so sharing them
// is safe. The replayed prefix stays in bufs; every later value of the batch
// arrives through the span list, and wrap concatenates prefix then spans.
func (f *colFiller) abandonDict(out int) {
	d := f.dicts[out]
	f.dicts[out] = nil
	for _, c := range f.codes[out] {
		f.bufs[out] = append(f.bufs[out], d.vals[c])
	}
	f.codes[out] = nil
}

// wrap publishes the filled column buffers as a batch and run-encodes the
// marked columns. String columns still in dictionary mode publish Dict
// vectors sharing the persistent dictionary; arena-staged columns pay the
// batch's one string allocation (Seal) and materialize their packed span
// lists into values in a single pass.
func (f *colFiller) wrap(n int, encode []int) *Batch {
	f.arena.Seal()
	for _, out := range f.strOuts {
		spans := f.spans[out]
		if len(spans) == 0 {
			continue
		}
		sealed := f.arena.Sealed()
		vals := f.bufs[out] // abandonment-replay prefix, usually empty
		mi := 0
		for _, p := range spans {
			switch {
			case p < spanNull:
				start := int(p >> 32)
				vals = append(vals, value.Value{Kind: value.KindString, S: sealed[start : start+int(p&0xFFFFFFFF)]})
			case p == spanNull:
				vals = append(vals, value.Value{})
			default:
				vals = append(vals, f.mixed[out][mi])
				mi++
			}
		}
		f.bufs[out] = vals
	}
	b := &Batch{Cols: make([]*vector.Vector, len(f.bufs)), n: n}
	for i := range f.bufs {
		// A dictionary-mode column filled codes for every row of this batch
		// and nothing into its value buffer; any other shape (abandonment
		// mid-batch clears codes) publishes flat.
		if d := f.dicts[i]; d != nil && len(f.codes[i]) == n && len(f.bufs[i]) == 0 {
			b.Cols[i] = vector.NewDict(d.vals, f.codes[i])
		} else {
			b.Cols[i] = vector.NewFlat(f.bufs[i])
		}
	}
	compressBatchCols(b, encode)
	return b
}

// fill pulls up to DefaultBatchSize records (table rows or covered index
// entries) from a cursor into a column-major batch: one NextSpans call, then
// one decode walk per span a projected column lives in. The spans come first
// so the column buffers are sized to the rows actually there — a point seek
// never allocates a full batch, and an exhausted cursor allocates nothing. A
// nil batch means the cursor is exhausted.
func (f *colFiller) fill(cur *catalog.Cursor, encode []int) (*Batch, error) {
	if f.paySpans == nil {
		f.paySpans = make([][]byte, DefaultBatchSize)
		if len(f.keyFields) > 0 {
			f.keySpans = make([][]byte, DefaultBatchSize)
		}
	}
	n := cur.NextSpans(f.keySpans, f.paySpans)
	if n == 0 {
		// Distinguish exhaustion from a page error mid-scan (corrupt tree):
		// the latter must fail the query, not end it early.
		return nil, cur.Err()
	}
	f.resetBufs(n)
	if len(f.keyFields) > 0 {
		for _, key := range f.keySpans[:n] {
			if err := f.decodeKey(key); err != nil {
				return nil, err
			}
		}
	}
	if len(f.payFields) > 0 {
		for _, payload := range f.paySpans[:n] {
			if err := f.decodePayload(payload); err != nil {
				return nil, err
			}
		}
	}
	b := f.wrap(n, encode)
	if !f.recycle {
		f.bufs = nil // the batch owns them now
		clear(f.codes)
	}
	return b, nil
}
