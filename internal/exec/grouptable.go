package exec

import (
	"math"

	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// aggGroups is the state of an aggregation's groups with no heap object per
// group: groups are numbered densely in first-seen order, and each group's
// first-seen values of the group-by columns and every aggregate's state live
// in one slice per column, indexed by group number. Every slice grows at
// once, doubling, so n groups cost O(log n) allocations.
//
// How a row finds its group is the grouper's business: groupTable hashes the
// key (the hash aggregates), groupRun compares it with the last group's (the
// stream aggregates, whose input arrives grouped).
type aggGroups struct {
	groupBy []int
	aggs    []AggSpec
	n       int           // groups
	room    int           // groups the slices have capacity for
	vals    []valueColumn // vals[k]: each group's first-seen value of group-by column k
	cols    []aggColumn   // one per aggregate

	// Per-batch scratch, reused so a batch allocates nothing.
	keyRow  []value.Value
	argVecs []*vector.Vector
	seg     segmentIter
	gids    []int32         // each segment's group
	pos     []int           // each segment's physical row
	reps    []int64         // each segment's row count (unused when every segment is one row)
	args    []value.Value   // one aggregate's argument per segment
	flats   [][]value.Value // the group-by columns of an all-flat batch
}

// grouper maps a key (one value per group-by column) to its group, adding
// the group when the key is new.
type grouper interface {
	groupOf(key []value.Value) int32
}

func newAggGroups(groupBy []int, aggs []AggSpec) aggGroups {
	s := aggGroups{
		groupBy: groupBy,
		aggs:    aggs,
		vals:    make([]valueColumn, len(groupBy)),
		cols:    make([]aggColumn, len(aggs)),
		keyRow:  make([]value.Value, len(groupBy)),
		flats:   make([][]value.Value, len(groupBy)),
	}
	for j, a := range aggs {
		s.cols[j].kind = a.Kind
	}
	return s
}

// add appends a group with key values key and empty aggregate state.
func (s *aggGroups) add(key []value.Value) int32 {
	if s.n == s.room {
		more := max(s.n, 64)
		for k := range s.vals {
			s.vals[k].reserve(more)
		}
		for j := range s.cols {
			s.cols[j].reserve(more)
		}
		s.room += more
	}
	for k, v := range key {
		s.vals[k].append(v)
	}
	for j := range s.cols {
		s.cols[j].grow()
	}
	s.n++
	return int32(s.n - 1)
}

// keyOf writes group g's key values to dst.
func (s *aggGroups) keyOf(g int, dst []value.Value) {
	for k := range s.vals {
		dst[k] = s.vals[k].get(g)
	}
}

// foldBatch folds one batch in: each live row, or each constant segment of
// compressed vectors (a clipped RLE run, a whole Const batch), is assigned
// its group by by, then every aggregate folds its argument column into the
// groups in one loop.
func (s *aggGroups) foldBatch(b *Batch, by grouper) error {
	var err error
	if s.argVecs, err = appendAggArgVectors(s.argVecs[:0], s.aggs, b); err != nil {
		return err
	}
	seg := &s.seg
	seg.reset(b, s.groupBy, s.argVecs)
	n := b.NumRows()
	global := int32(-1)
	if len(s.groupBy) == 0 {
		global = by.groupOf(nil)
		if seg.flat {
			// A global aggregate's flat batch is one run of one group.
			for j, vec := range s.argVecs {
				var vals []value.Value
				if vec != nil {
					vals = vec.Flat()
				}
				s.cols[j].foldRun(global, 0, n, vals, b.Sel, nil)
			}
			return nil
		}
	}
	s.gids = growCap(s.gids[:0], n)
	if seg.flat {
		for k, c := range s.groupBy {
			s.flats[k] = b.Cols[c].Flat()
		}
	} else {
		s.pos, s.reps = growCap(s.pos[:0], n), growCap(s.reps[:0], n)
	}
	for i := 0; i < n; {
		p, rows := seg.next(i)
		g := global
		if g < 0 {
			for k, c := range s.groupBy {
				if seg.flat {
					s.keyRow[k] = s.flats[k][p]
				} else {
					s.keyRow[k] = b.Cols[c].Get(p)
				}
			}
			g = by.groupOf(s.keyRow)
		}
		s.gids = append(s.gids, g)
		if !seg.flat {
			s.pos = append(s.pos, p)
			s.reps = append(s.reps, int64(rows))
		}
		i += rows
	}
	// A flat batch's segments are its live rows: their arguments sit at the
	// selection's physical rows (all rows when it is nil), one row each. A
	// compressed batch's are gathered, one per segment.
	var reps []int64
	if !seg.flat {
		reps = s.reps
	}
	for j, vec := range s.argVecs {
		var vals []value.Value
		var idx []int
		switch {
		case vec == nil:
		case seg.flat:
			vals, idx = vec.Flat(), b.Sel
		default:
			s.args = growCap(s.args[:0], len(s.pos))
			for _, p := range s.pos {
				s.args = append(s.args, vec.Get(p))
			}
			vals = s.args
		}
		s.cols[j].fold(s.gids, vals, idx, reps)
	}
	return nil
}

// foldRow folds one row in (the row-at-a-time build).
func (s *aggGroups) foldRow(row Row, by grouper) error {
	for k, c := range s.groupBy {
		s.keyRow[k] = row[c]
	}
	s.gids = append(s.gids[:0], by.groupOf(s.keyRow))
	for j, a := range s.aggs {
		var args []value.Value
		if a.Kind != AggCountStar {
			v, err := a.Arg.Eval(row)
			if err != nil {
				return err
			}
			s.args = append(s.args[:0], v)
			args = s.args
		}
		s.cols[j].fold(s.gids, args, nil, nil)
	}
	return nil
}

// merge folds o's group og into group into[og], for every og — the
// partial→final combine of parallel aggregation. Each group takes at most
// one merge per call, so only the order of the calls decides float-sum
// rounding: the parallel aggregates merge morsel partials in morsel order.
func (s *aggGroups) merge(o *aggGroups, into []int32) {
	for j := range s.cols {
		s.cols[j].merge(&o.cols[j], into)
	}
}

// addGlobal adds a global aggregate's (no GROUP BY) single group when no
// row has: over empty input it still yields one row.
func (s *aggGroups) addGlobal() {
	if len(s.groupBy) == 0 && s.n == 0 {
		s.add(nil)
	}
}

// result renders groups order[0..n) — groups 0..n-1 when order is nil —
// column by column. It fails when an integer SUM overflowed.
func (s *aggGroups) result(order []int, n int) (colResult, error) {
	res := newColResult(n, len(s.vals)+len(s.cols))
	group := func(i int) int {
		if order == nil {
			return i
		}
		return order[i]
	}
	for k := range s.vals {
		for i, out := 0, res.col(k); i < n; i++ {
			out[i] = s.vals[k].get(group(i))
		}
	}
	for j := range s.cols {
		for i, out := 0, res.col(len(s.vals)+j); i < n; i++ {
			v, err := s.cols[j].result(group(i))
			if err != nil {
				return colResult{}, err
			}
			out[i] = v
		}
	}
	return res, nil
}

// dropFirst drops groups 0..m-1 and renumbers the rest from 0.
func (s *aggGroups) dropFirst(m int) {
	for k := range s.vals {
		s.vals[k].dropFirst(m)
	}
	for j := range s.cols {
		s.cols[j].dropFirst(m)
	}
	s.n -= m
}

// groupTable is the hash aggregate's build: HashAggregate fills one, and the
// per-morsel partials of ParallelHashAggregate fill one each and combine
// with mergeFrom in morsel order; finish renders the groups sorted by
// encoded key, so serial and parallel plans produce the identical rows in
// the identical order. Group g's key is its in-memory grouping key
// (value.EncodeKey, under which 1 and 1.0 are one group): key g of the
// table's keyIndex, which numbers keys in first-seen order as groups are.
type groupTable struct {
	aggGroups
	keyIndex
}

func newGroupTable(groupBy []int, aggs []AggSpec) *groupTable {
	return &groupTable{aggGroups: newAggGroups(groupBy, aggs), keyIndex: newKeyIndex()}
}

// consumeBatch folds one batch into the table.
func (t *groupTable) consumeBatch(b *Batch) error { return t.foldBatch(b, t) }

// consumeRow folds one row into the table.
func (t *groupTable) consumeRow(row Row) error { return t.foldRow(row, t) }

// groupOf implements grouper.
func (t *groupTable) groupOf(key []value.Value) int32 {
	start := len(t.keys.Buf)
	for _, v := range key {
		t.keys.Buf = value.AppendKeyValue(t.keys.Buf, v)
	}
	g, added := t.intern(start)
	if added {
		t.add(key)
	}
	return g
}

// mergeFrom folds another table's groups into t, o's keys first seen in o
// taking o's key values. o must have been built over the same groupBy and
// aggs; it is consumed.
func (t *groupTable) mergeFrom(o *groupTable) {
	n := int32(t.n)
	into := t.mergeKeys(&o.keyIndex)
	for og, g := range into {
		if g >= n {
			o.keyOf(og, t.keyRow)
			t.add(t.keyRow)
		}
	}
	t.merge(&o.aggGroups, into)
}

// finish renders the groups sorted by encoded key.
func (t *groupTable) finish() (*colResult, error) {
	if len(t.groupBy) == 0 && t.n == 0 {
		t.groupOf(nil)
	}
	order := t.keys.Order()
	res, err := t.result(order, len(order))
	return &res, err
}

// groupRun is the stream aggregates' build over input that arrives grouped
// on the group-by columns: a key starts a new group unless it equals the
// last group's (value.Compare, column by column).
type groupRun struct {
	aggGroups
}

func newGroupRun(groupBy []int, aggs []AggSpec) *groupRun {
	return &groupRun{newAggGroups(groupBy, aggs)}
}

// groupOf implements grouper.
func (r *groupRun) groupOf(key []value.Value) int32 {
	if r.n > 0 && r.lastIs(key) {
		return int32(r.n - 1)
	}
	return r.add(key)
}

// lastIs reports whether key equals the last group's key.
func (r *groupRun) lastIs(key []value.Value) bool {
	for k, v := range key {
		if value.Compare(v, r.vals[k].get(r.n-1)) != 0 {
			return false
		}
	}
	return true
}

// appendRun concatenates the next morsel's run onto r. Morsels are
// consecutive ranges of the grouped input, so two adjacent runs share at
// most the group at their seam, which merges; concatenating the runs in
// morsel order reproduces the serial stream aggregate's groups exactly.
func (r *groupRun) appendRun(o *groupRun) {
	into := make([]int32, o.n)
	for og := range into {
		o.keyOf(og, r.keyRow)
		if og == 0 && r.n > 0 && r.lastIs(r.keyRow) {
			into[og] = int32(r.n - 1)
			continue
		}
		into[og] = r.add(r.keyRow)
	}
	r.merge(&o.aggGroups, into)
}

// aggColumn is one aggregate's state for every group, one slice per
// component, indexed by group number. Only the slices its kind reads are
// kept.
type aggColumn struct {
	kind  AggKind
	count []int64     // COUNT(*), COUNT, SUM, AVG: rows folded (non-NULL ones but for COUNT(*))
	sumI  []int64     // SUM: the integer sum
	sumF  []float64   // SUM, AVG: the float sum
	flags []uint8     // SUM: sumFloat, sumOverflow
	ext   valueColumn // MIN, MAX: the extreme so far, NULL before the first value
}

// SUM flags.
const (
	sumFloat    uint8 = 1 << iota // a FLOAT was folded: the sum is the float sum
	sumOverflow                   // the integer sum left int64's range
)

// grow adds a group with empty state.
func (c *aggColumn) grow() {
	switch c.kind {
	case AggMin, AggMax:
		c.ext.append(value.Value{})
		return
	case AggSum:
		c.sumI = append(c.sumI, 0)
		c.flags = append(c.flags, 0)
		c.sumF = append(c.sumF, 0)
	case AggAvg:
		c.sumF = append(c.sumF, 0)
	}
	c.count = append(c.count, 0)
}

// reserve makes room for n more groups.
func (c *aggColumn) reserve(n int) {
	switch c.kind {
	case AggMin, AggMax:
		c.ext.reserve(n)
		return
	case AggSum:
		c.sumI = growCap(c.sumI, n)
		c.flags = growCap(c.flags, n)
		c.sumF = growCap(c.sumF, n)
	case AggAvg:
		c.sumF = growCap(c.sumF, n)
	}
	c.count = growCap(c.count, n)
}

// dropFirst drops groups 0..m-1.
func (c *aggColumn) dropFirst(m int) {
	c.count = dropFirst(c.count, m)
	c.sumI = dropFirst(c.sumI, m)
	c.sumF = dropFirst(c.sumF, m)
	c.flags = dropFirst(c.flags, m)
	c.ext.dropFirst(m)
}

// fold adds, for every segment i, reps[i] rows (1 when reps is nil) holding
// argument argAt(vals, idx, i) to group gids[i]. vals is nil for COUNT(*).
// A run of segments of one group (a global aggregate's batch, a stream
// aggregate's group, sorted input) accumulates in locals and stores once; a
// segment of several rows folds as one multiply, and float sums add
// v × reps, which can round differently from repeated addition — SQL leaves
// float aggregation order unspecified. Integer sums stay exact or record
// their overflow.
func (c *aggColumn) fold(gids []int32, vals []value.Value, idx []int, reps []int64) {
	for lo := 0; lo < len(gids); {
		g, hi := gids[lo], lo+1
		for hi < len(gids) && gids[hi] == g {
			hi++
		}
		c.foldRun(g, lo, hi, vals, idx, reps)
		lo = hi
	}
}

// foldRun folds segments lo..hi-1, all of group g, in locals.
func (c *aggColumn) foldRun(g int32, lo, hi int, vals []value.Value, idx []int, reps []int64) {
	switch c.kind {
	case AggCountStar:
		n := int64(hi - lo)
		if reps != nil {
			n = 0
			for _, r := range reps[lo:hi] {
				n += r
			}
		}
		c.count[g] += n
	case AggCount:
		n := c.count[g]
		for i := lo; i < hi; i++ {
			if argAt(vals, idx, i).Kind != value.KindNull {
				n += rowsAt(reps, i)
			}
		}
		c.count[g] = n
	case AggSum:
		n, sumF, sumI, flags := c.count[g], c.sumF[g], c.sumI[g], c.flags[g]
		for i := lo; i < hi; i++ {
			v := argAt(vals, idx, i)
			if v.Kind == value.KindNull {
				continue
			}
			r := rowsAt(reps, i)
			n += r
			sumF += v.Float() * float64(r)
			if v.Kind == value.KindFloat {
				flags |= sumFloat
				continue
			}
			s, over := addIntN(sumI, v.Int(), r)
			sumI = s
			if over {
				flags |= sumOverflow
			}
		}
		c.count[g], c.sumF[g], c.sumI[g], c.flags[g] = n, sumF, sumI, flags
	case AggAvg:
		n, sumF := c.count[g], c.sumF[g]
		for i := lo; i < hi; i++ {
			if v := argAt(vals, idx, i); v.Kind != value.KindNull {
				r := rowsAt(reps, i)
				n += r
				sumF += v.Float() * float64(r)
			}
		}
		c.count[g], c.sumF[g] = n, sumF
	case AggMin, AggMax:
		cur := c.ext.get(int(g))
		for i := lo; i < hi; i++ {
			if v := argAt(vals, idx, i); c.beats(v, &cur) {
				cur = *v
			}
		}
		c.ext.set(int(g), cur)
	}
}

// argAt is segment i's argument: vals[idx[i]], or vals[i] when idx is nil.
func argAt(vals []value.Value, idx []int, i int) *value.Value {
	if idx != nil {
		return &vals[idx[i]]
	}
	return &vals[i]
}

// rowsAt is segment i's row count: reps[i], or 1 when reps is nil.
func rowsAt(reps []int64, i int) int64 {
	if reps == nil {
		return 1
	}
	return reps[i]
}

// merge folds o's group og into group into[og], for every og: COUNT and SUM
// add, MIN/MAX compare, AVG adds its sum and count.
func (c *aggColumn) merge(o *aggColumn, into []int32) {
	switch c.kind {
	case AggMin, AggMax:
		for og, g := range into {
			if v, cur := o.ext.get(og), c.ext.get(int(g)); c.beats(&v, &cur) {
				c.ext.set(int(g), v)
			}
		}
		return
	case AggSum:
		for og, g := range into {
			s, over := addInt(c.sumI[g], o.sumI[og])
			c.sumI[g] = s
			c.flags[g] |= o.flags[og]
			if over {
				c.flags[g] |= sumOverflow
			}
		}
		fallthrough
	case AggAvg:
		for og, g := range into {
			c.sumF[g] += o.sumF[og]
		}
	}
	for og, g := range into {
		c.count[g] += o.count[og]
	}
}

// result is group g's aggregate value. An integer SUM that overflowed
// fails, unless a FLOAT made it a float sum.
func (c *aggColumn) result(g int) (value.Value, error) {
	switch c.kind {
	case AggCountStar, AggCount:
		return value.NewInt(c.count[g]), nil
	case AggSum:
		switch {
		case c.count[g] == 0:
			return value.Null(), nil
		case c.flags[g]&sumFloat != 0:
			return value.NewFloat(c.sumF[g]), nil
		case c.flags[g]&sumOverflow != 0:
			return value.Null(), ErrSumOverflow
		}
		return value.NewInt(c.sumI[g]), nil
	case AggAvg:
		if c.count[g] == 0 {
			return value.Null(), nil
		}
		return value.NewFloat(c.sumF[g] / float64(c.count[g])), nil
	default: // AggMin, AggMax
		return c.ext.get(g), nil
	}
}

// beats reports whether v is a new MIN (or MAX) over cur. NULL never is,
// and anything beats NULL.
func (c *aggColumn) beats(v, cur *value.Value) bool {
	switch {
	case v.Kind == value.KindNull:
		return false
	case cur.Kind == value.KindNull:
		return true
	case v.Kind == cur.Kind && (v.Kind == value.KindInt || v.Kind == value.KindDate):
		// Same-kind integers, the common case, compare without Compare.
		return v.I != cur.I && (v.I < cur.I) == (c.kind == AggMin)
	}
	cmp := value.Compare(*v, *cur)
	return cmp != 0 && (cmp < 0) == (c.kind == AggMin)
}

// valueColumn holds one value per group in nine bytes and no pointers: its
// kind and a word, the integer or the float's bits or, for a string, the
// string's index in strs.
type valueColumn struct {
	kinds []value.Kind
	words []uint64
	strs  []string
}

// reserve makes room for n more values.
func (c *valueColumn) reserve(n int) {
	c.kinds = growCap(c.kinds, n)
	c.words = growCap(c.words, n)
}

func (c *valueColumn) append(v value.Value) {
	c.kinds = append(c.kinds, value.KindNull)
	c.words = append(c.words, 0)
	c.set(len(c.kinds)-1, v)
}

// set replaces value g. A string replacing a string reuses its slot in strs.
func (c *valueColumn) set(g int, v value.Value) {
	w := uint64(v.I)
	switch v.Kind {
	case value.KindFloat:
		w = math.Float64bits(v.F)
	case value.KindString:
		if c.kinds[g] == value.KindString {
			c.strs[c.words[g]] = v.S
			return
		}
		w = uint64(len(c.strs))
		c.strs = append(c.strs, v.S)
	}
	c.kinds[g], c.words[g] = v.Kind, w
}

func (c *valueColumn) get(g int) value.Value {
	switch k := c.kinds[g]; k {
	case value.KindFloat:
		return value.Value{Kind: k, F: math.Float64frombits(c.words[g])}
	case value.KindString:
		return value.Value{Kind: k, S: c.strs[c.words[g]]}
	default:
		return value.Value{Kind: k, I: int64(c.words[g])}
	}
}

// dropFirst drops values 0..m-1; strs keeps only the strings still indexed.
func (c *valueColumn) dropFirst(m int) {
	var kept []value.Value
	for g := m; g < len(c.kinds); g++ {
		kept = append(kept, c.get(g))
	}
	clear(c.strs)
	c.kinds, c.words, c.strs = c.kinds[:0], c.words[:0], c.strs[:0]
	for _, v := range kept {
		c.append(v)
	}
}

// dropFirst removes s's first m elements in place.
func dropFirst[T any](s []T, m int) []T {
	if m >= len(s) {
		return s[:0]
	}
	return s[:copy(s, s[m:])]
}

// growCap returns s with room for n more elements, in one allocation
// whatever the build (slices.Grow makes two under the race detector).
func growCap[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]T, len(s), len(s)+n)
	copy(grown, s)
	return grown
}

// colResult is a materialized result held column by column in one slice —
// the aggregates' output, handed out as batches that alias it.
type colResult struct {
	vals []value.Value // column c is vals[c*n : (c+1)*n]
	n, w int           // rows, columns
}

func newColResult(n, w int) colResult {
	return colResult{vals: make([]value.Value, n*w), n: n, w: w}
}

// col returns column c.
func (r *colResult) col(c int) []value.Value { return r.vals[c*r.n : (c+1)*r.n : (c+1)*r.n] }

func (r *colResult) len() int { return r.n }

func (r *colResult) batch(from, to int) *Batch {
	vecs := make([]*vector.Vector, r.w)
	for c := range vecs {
		vecs[c] = vector.NewFlat(r.col(c)[from:to:to])
	}
	return &Batch{Cols: vecs, n: to - from}
}

func (r *colResult) row(i int) Row {
	out := make(Row, r.w)
	for c := range out {
		out[c] = r.vals[c*r.n+i]
	}
	return out
}
