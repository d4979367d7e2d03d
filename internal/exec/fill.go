package exec

import (
	"slices"
	"sync"

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
// The filler itself is only the projection (fillLayout, shared with its
// morsels) and a hint; everything an execution fills through — column, code
// and span buffers, the string staging arena, the string dictionaries — is a
// fillBufs taken from fillPool at the first fill and returned by release,
// which every scan calls as it closes. So a plan idle in the plan cache holds
// no buffer and reaches no page, and a warm lease still skips the 32→1024
// growth ramp: the pool hands back buffers an earlier execution grew, until
// the collector empties it. Recycling within an execution is only legal under
// the batch protocol's retention contract (parents must not hold a batch's
// columns after the following NextBatch, nor after Close). A morsel whose
// consumer keeps its batches (ParallelMerge, the Morseler retain contract)
// runs with recycle off: its value and code buffers and its dictionaries are
// allocated for the batches that publish them and never enter the pool. Span
// lists and the staging arena never escape the filler and are always pooled.
type colFiller struct {
	*fillLayout
	recycle bool
	// arenaOnly marks the string columns that left dictionary mode in an
	// earlier execution (nil until one does): a later execution starts them
	// in arena mode instead of interning up to dictMaxDistinct strings again.
	arenaOnly []bool

	b *fillBufs // this execution's buffers; nil while the scan is idle
}

// fillLayout is the immutable part of a filler: which output column each
// projected key and payload position feeds, and the kinds they decode under.
type fillLayout struct {
	// kinds[i] is the declared kind of output column i, selecting its typed
	// decoder; keyKinds[p] and payKinds[p] are the declared kinds at key and
	// payload position p, which the record's spans are walked under.
	// keyFields and payFields map key positions and payload field positions to
	// output columns, each sorted by position so one forward walk per span
	// collects every projected value. strOuts lists the string output
	// columns, so wrap touches no others.
	kinds     []value.Kind
	keyKinds  []value.Kind
	payKinds  []value.Kind
	keyFields []fillField
	payFields []fillField
	strOuts   []int
}

// fillBufs is one execution's fill state, pooled engine-wide (fillPool) and
// shape-agnostic: a filler resizes what it takes to its own column count.
type fillBufs struct {
	bufs [][]value.Value

	// Raw-span staging for fill: one NextSpans call per batch. The spans
	// alias page memory and are consumed before the batch is published;
	// release clears the first used entries, so no page frame the buffer pool
	// has evicted stays reachable from the pool. keyScratch holds a key
	// string unescaped out of its key bytes.
	keySpans   [][]byte
	paySpans   [][]byte
	used       int
	keyScratch []byte

	// String decode state. Every declared-string output column starts in
	// dictionary mode: values intern into a per-execution dictionary and the
	// column fills a code buffer instead of a value buffer, so
	// low-cardinality columns publish vector.Dict directly and downstream
	// kernels ride the dictionary fast paths. A column whose distinct count
	// crosses dictMaxDistinct abandons dictionary mode for the rest of the
	// execution (replaying the current batch's codes), and the filler starts
	// it in arena mode from then on (colFiller.arenaOnly): string contents
	// stage into one recycled buffer, the hot loop appends only a packed
	// 8-byte span per value (no Value write, no write barrier), and wrap pays
	// the batch's single string allocation (Seal) before materializing the
	// column in one pass.
	arena value.StringArena
	dicts []*dictState
	codes [][]uint32
	spans [][]uint64
	mixed [][]value.Value
}

// fillPool recycles fill buffers between executions of every plan in the
// process. The collector may empty it, so an idle engine holds none.
var fillPool = sync.Pool{New: func() any { return new(fillBufs) }}

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

// dictState is the dictionary of one string output column for one
// execution: the interning map and the dictionary values, shared (read-only
// up to the published length) by every Dict vector the column emits until the
// scan closes. Interned strings are deep copies, so they outlive pages,
// batches, and the filler. keys runs parallel to vals, holding each string
// entry's bytes for the linear-probe fast path; the NULL entry's key is nil
// (always non-nil for strings — interning allocates through make — so the nil
// check cannot mistake a real empty string for NULL).
type dictState struct {
	codeOf   map[string]uint32
	keys     [][]byte
	vals     []value.Value
	nullCode int32 // code of the interned NULL entry, -1 until first NULL
}

// reset empties the dictionary for another execution, keeping its capacity.
func (d *dictState) reset() {
	clear(d.codeOf)
	clear(d.keys)
	clear(d.vals)
	d.keys, d.vals, d.nullCode = d.keys[:0], d.vals[:0], -1
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

// newColFiller builds a recycling filler producing len(kinds) output
// columns, where output column i is the logical column positions[i] of
// records laid out as layout says.
func newColFiller(kinds []value.Kind, layout *catalog.Layout, positions []int) *colFiller {
	l := &fillLayout{kinds: kinds, keyKinds: layout.KeyKinds, payKinds: layout.PayKinds}
	for i, pos := range positions {
		if p := layout.KeyPos[pos]; p >= 0 {
			l.keyFields = append(l.keyFields, fillField{pos: p, out: i})
		} else {
			l.payFields = append(l.payFields, fillField{pos: layout.PayPos[pos], out: i})
		}
	}
	for i, k := range kinds {
		if k == value.KindString {
			l.strOuts = append(l.strOuts, i)
		}
	}
	// Projections can permute ordinals relative to storage order.
	byPos := func(a, b fillField) int { return a.pos - b.pos }
	slices.SortFunc(l.keyFields, byPos)
	slices.SortFunc(l.payFields, byPos)
	return &colFiller{fillLayout: l, recycle: true}
}

// morsel returns a filler of the same projection for one morsel of the scan.
func (f *colFiller) morsel(recycle bool) *colFiller {
	return &colFiller{fillLayout: f.fillLayout, recycle: recycle}
}

// acquire takes this execution's buffers from the pool and sizes their
// per-column lists to the filler's columns. A string column starts in
// dictionary mode with an emptied dictionary unless it left that mode before.
func (f *colFiller) acquire() *fillBufs {
	b := fillPool.Get().(*fillBufs)
	n := len(f.kinds)
	b.bufs = resize(b.bufs, n)
	b.codes = resize(b.codes, n)
	b.spans = resize(b.spans, n)
	b.mixed = resize(b.mixed, n)
	b.dicts = resize(b.dicts, n)
	for i, d := range b.dicts {
		switch {
		case f.kinds[i] != value.KindString || (f.arenaOnly != nil && f.arenaOnly[i]):
			b.dicts[i] = nil
		case d == nil:
			b.dicts[i] = &dictState{codeOf: make(map[string]uint32), nullCode: -1}
		default:
			d.reset()
		}
	}
	if b.paySpans == nil {
		b.paySpans = make([][]byte, DefaultBatchSize)
	}
	if b.keySpans == nil && len(f.keyFields) > 0 {
		b.keySpans = make([][]byte, DefaultBatchSize)
	}
	f.b = b
	return b
}

// resize returns s with length n, reusing its backing array when it is large
// enough. Entries past the old length keep whatever buffers an earlier user
// of the pooled fillBufs left there.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// release returns the execution's buffers to the pool, emptied: the spans no
// longer reach any page, and the value buffers no longer reach any string. A
// filler whose batches are retained has handed each batch its value and code
// buffers (fill), and hands it the dictionaries here: none of them is
// pooled. Releasing an idle filler does nothing.
func (f *colFiller) release() {
	b := f.b
	if b == nil {
		return
	}
	f.b = nil
	if b.keySpans != nil {
		clear(b.keySpans[:b.used])
	}
	clear(b.paySpans[:b.used])
	b.used = 0
	for i := range b.bufs {
		clear(b.bufs[i][:cap(b.bufs[i])])
		b.bufs[i] = b.bufs[i][:0]
		clear(b.mixed[i][:cap(b.mixed[i])])
		b.mixed[i] = b.mixed[i][:0]
	}
	if !f.recycle {
		clear(b.dicts)
	}
	b.keyScratch = b.keyScratch[:0]
	b.arena.Reset()
	fillPool.Put(b)
}

// resetBufs readies the column buffers for a fill of n rows: recycle mode
// truncates the execution's buffers in place (legal under the batch retention
// contract), growing one only when n exceeds it; fresh mode allocates exactly
// sized buffers that the batch — and the downstream pipe, indefinitely — will
// own.
func (f *colFiller) resetBufs(n int) {
	b := f.b
	for i := range b.bufs {
		if f.recycle && cap(b.bufs[i]) >= n {
			b.bufs[i] = b.bufs[i][:0]
		} else {
			b.bufs[i] = make([]value.Value, 0, n)
		}
		if b.dicts[i] == nil {
			continue
		}
		if f.recycle && cap(b.codes[i]) >= n {
			b.codes[i] = b.codes[i][:0]
		} else {
			b.codes[i] = make([]uint32, 0, n)
		}
	}
	// The staging buffer, span lists, and mixed side lists are filler-private
	// and never escape (Seal's string and the materialized values do), so
	// they recycle even in morsel mode.
	for _, out := range f.strOuts {
		b.spans[out] = b.spans[out][:0]
		b.mixed[out] = b.mixed[out][:0]
	}
	b.arena.Reset()
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
			body, n, isStr, err := value.KeyStringBody(key[off:], &f.b.keyScratch)
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
		f.b.bufs[fd.out] = append(f.b.bufs[fd.out], v)
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
		f.b.bufs[fd.out] = append(f.b.bufs[fd.out], v)
	}
	return nil
}

// fillString appends one string-column value: body is the string contents
// when isStr, v the decoded value otherwise (NULL, or another kind the column
// took while it was no key). Dictionary mode interns the contents and appends
// a code; arena mode stages the contents and appends a placeholder the wrap
// resolves after Seal. Non-string, non-NULL kinds abandon dictionary mode.
func (f *colFiller) fillString(out int, body []byte, isStr bool, v value.Value) {
	if d := f.b.dicts[out]; d != nil {
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
			f.b.codes[out] = append(f.b.codes[out], code)
			return
		case v.IsNull():
			f.b.codes[out] = append(f.b.codes[out], d.internNull())
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
		f.b.spans[out] = append(f.b.spans[out], f.b.arena.StagePacked(body))
	case v.IsNull():
		f.b.spans[out] = append(f.b.spans[out], spanNull)
	default:
		f.b.mixed[out] = append(f.b.mixed[out], v)
		f.b.spans[out] = append(f.b.spans[out], spanMixed)
	}
}

// abandonDict switches a string column out of dictionary mode for the rest
// of the execution, and for later executions of the filler, replaying the current batch's codes as plain values into the column's
// value buffer. Interned dictionary strings are deep copies, so sharing them
// is safe. The replayed prefix stays in bufs; every later value of the batch
// arrives through the span list, and wrap concatenates prefix then spans.
func (f *colFiller) abandonDict(out int) {
	d := f.b.dicts[out]
	f.b.dicts[out] = nil
	for _, c := range f.b.codes[out] {
		f.b.bufs[out] = append(f.b.bufs[out], d.vals[c])
	}
	f.b.codes[out] = nil
	if f.arenaOnly == nil {
		f.arenaOnly = make([]bool, len(f.kinds))
	}
	f.arenaOnly[out] = true
}

// wrap publishes the filled column buffers as a batch and run-encodes the
// marked columns. String columns still in dictionary mode publish Dict
// vectors sharing the execution's dictionary; arena-staged columns pay the
// batch's one string allocation (Seal) and materialize their packed span
// lists into values in a single pass.
func (f *colFiller) wrap(n int, encode []int) *Batch {
	f.b.arena.Seal()
	for _, out := range f.strOuts {
		spans := f.b.spans[out]
		if len(spans) == 0 {
			continue
		}
		sealed := f.b.arena.Sealed()
		vals := f.b.bufs[out] // abandonment-replay prefix, usually empty
		mi := 0
		for _, p := range spans {
			switch {
			case p < spanNull:
				start := int(p >> 32)
				vals = append(vals, value.Value{Kind: value.KindString, S: sealed[start : start+int(p&0xFFFFFFFF)]})
			case p == spanNull:
				vals = append(vals, value.Value{})
			default:
				vals = append(vals, f.b.mixed[out][mi])
				mi++
			}
		}
		f.b.bufs[out] = vals
	}
	b := &Batch{Cols: make([]*vector.Vector, len(f.b.bufs)), n: n}
	for i := range f.b.bufs {
		// A dictionary-mode column filled codes for every row of this batch
		// and nothing into its value buffer; any other shape (abandonment
		// mid-batch clears codes) publishes flat.
		if d := f.b.dicts[i]; d != nil && len(f.b.codes[i]) == n && len(f.b.bufs[i]) == 0 {
			b.Cols[i] = vector.NewDict(d.vals, f.b.codes[i])
		} else {
			b.Cols[i] = vector.NewFlat(f.b.bufs[i])
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
// nil batch means the cursor is exhausted. The first fill of an execution
// takes the filler's buffers from the pool.
func (f *colFiller) fill(cur *catalog.Cursor, encode []int) (*Batch, error) {
	b := f.b
	if b == nil {
		b = f.acquire()
	}
	var keys [][]byte
	if len(f.keyFields) > 0 {
		keys = b.keySpans
	}
	n := cur.NextSpans(keys, b.paySpans)
	b.used = max(b.used, n)
	if n == 0 {
		// Distinguish exhaustion from a page error mid-scan (corrupt tree):
		// the latter must fail the query, not end it early.
		return nil, cur.Err()
	}
	f.resetBufs(n)
	if keys != nil {
		for _, key := range keys[:n] {
			if err := f.decodeKey(key); err != nil {
				return nil, err
			}
		}
	}
	if len(f.payFields) > 0 {
		for _, payload := range b.paySpans[:n] {
			if err := f.decodePayload(payload); err != nil {
				return nil, err
			}
		}
	}
	batch := f.wrap(n, encode)
	if !f.recycle {
		clear(b.bufs) // the batch owns them now
		clear(b.codes)
	}
	return batch, nil
}
