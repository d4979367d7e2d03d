package exec

import (
	"context"
	"fmt"
	"sort"

	"oldelephant/internal/expr"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// AggKind enumerates the supported aggregate functions.
type AggKind int

// Aggregate functions.
const (
	AggCountStar AggKind = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCountStar, AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// AggSpec is one aggregate in the output of a grouping operator.
type AggSpec struct {
	Kind AggKind
	Arg  expr.Expr // nil for COUNT(*)
	Name string    // output column label
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count   int64
	sum     float64
	sumInt  int64
	intOnly bool
	min     value.Value
	max     value.Value
	seen    bool
}

func newAggState() *aggState {
	return &aggState{intOnly: true, min: value.Null(), max: value.Null()}
}

func (s *aggState) add(v value.Value, kind AggKind) { s.addN(v, 1, kind) }

// addN folds reps occurrences of v into the state at once: COUNT and SUM
// over a run of equal values collapse to one addition and one multiply,
// MIN/MAX to a single comparison. It is how the vectorized aggregates
// consume RLE runs as (value, count) pairs. Integer sums stay exact; float
// sums fold the run as v*reps, which can round differently from repeated
// addition — SQL leaves float aggregation order unspecified, and consumers
// comparing against a row-at-a-time sum must allow a tolerance.
func (s *aggState) addN(v value.Value, reps int64, kind AggKind) {
	if kind == AggCountStar {
		s.count += reps
		return
	}
	if v.IsNull() {
		return
	}
	s.count += reps
	s.seen = true
	switch kind {
	case AggSum, AggAvg:
		if v.Kind == value.KindFloat {
			s.intOnly = false
		}
		s.sum += v.Float() * float64(reps)
		s.sumInt += v.Int() * reps
	case AggMin:
		if s.min.IsNull() || value.Compare(v, s.min) < 0 {
			s.min = v
		}
	case AggMax:
		if s.max.IsNull() || value.Compare(v, s.max) > 0 {
			s.max = v
		}
	}
}

// merge folds another partial state for the same group and aggregate into s —
// the partial→final combine step of parallel aggregation. COUNT and SUM add,
// MIN/MAX compare, AVG adds its sum and count. Integer sums stay exact; float
// sums adopt the merge order's rounding, so callers merge partials in a
// deterministic (morsel) order.
func (s *aggState) merge(o *aggState, kind AggKind) {
	s.count += o.count
	s.seen = s.seen || o.seen
	switch kind {
	case AggSum, AggAvg:
		s.intOnly = s.intOnly && o.intOnly
		s.sum += o.sum
		s.sumInt += o.sumInt
	case AggMin:
		if !o.min.IsNull() && (s.min.IsNull() || value.Compare(o.min, s.min) < 0) {
			s.min = o.min
		}
	case AggMax:
		if !o.max.IsNull() && (s.max.IsNull() || value.Compare(o.max, s.max) > 0) {
			s.max = o.max
		}
	}
}

func (s *aggState) result(kind AggKind) value.Value {
	switch kind {
	case AggCountStar, AggCount:
		return value.NewInt(s.count)
	case AggSum:
		if !s.seen {
			return value.Null()
		}
		if s.intOnly {
			return value.NewInt(s.sumInt)
		}
		return value.NewFloat(s.sum)
	case AggAvg:
		if s.count == 0 {
			return value.Null()
		}
		return value.NewFloat(s.sum / float64(s.count))
	case AggMin:
		return s.min
	case AggMax:
		return s.max
	default:
		return value.Null()
	}
}

// aggSchema builds the output schema of a grouping operator: the group-by
// columns (in order) followed by one column per aggregate.
func aggSchema(input Operator, groupBy []int, aggs []AggSpec) []ColumnInfo {
	return aggSchemaFromCols(input.Schema(), groupBy, aggs)
}

// aggSchemaFromCols is aggSchema over an input schema already in hand (the
// parallel aggregates build theirs from a morsel pipeline's schema).
func aggSchemaFromCols(in []ColumnInfo, groupBy []int, aggs []AggSpec) []ColumnInfo {
	out := make([]ColumnInfo, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		out = append(out, in[g])
	}
	for _, a := range aggs {
		name := a.Name
		if name == "" {
			name = a.Kind.String()
		}
		kind := value.KindInt
		switch a.Kind {
		case AggAvg:
			kind = value.KindFloat
		case AggSum, AggMin, AggMax:
			if col, ok := a.Arg.(*expr.Column); ok && col.Index < len(in) {
				kind = in[col.Index].Kind
			} else {
				kind = value.KindFloat
			}
		}
		out = append(out, ColumnInfo{Name: name, Kind: kind})
	}
	return out
}

// HashAggregate groups its input with a hash table; input order is
// irrelevant and output order is the group-key order (sorted for
// determinism). The build is deferred to the first Next/NextBatch call so the
// input can be drained through whichever pull protocol the parent is using.
type HashAggregate struct {
	Input   Operator
	GroupBy []int
	Aggs    []AggSpec

	schema  []ColumnInfo
	results []Row
	built   bool
	pos     int
	// ctx, when set by ApplyContext after Open, is checked inside the build
	// drain so cancellation is observed mid-aggregation. Open clears it.
	ctx context.Context
}

// NewHashAggregate builds a hash-based grouping operator.
func NewHashAggregate(input Operator, groupBy []int, aggs []AggSpec) *HashAggregate {
	return &HashAggregate{Input: input, GroupBy: groupBy, Aggs: aggs, schema: aggSchema(input, groupBy, aggs)}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() []ColumnInfo { return h.schema }

// Open implements Operator.
func (h *HashAggregate) Open() error {
	h.results, h.built, h.pos = nil, false, 0
	h.ctx = nil
	return h.Input.Open()
}

// Child implements Parent.
func (h *HashAggregate) Child(i int) *Operator { return slot(i, &h.Input) }

// ReplanInputs implements Replanner.
func (h *HashAggregate) ReplanInputs() bool { return true }

// SetContext implements ContextTaker.
func (h *HashAggregate) SetContext(ctx context.Context) { h.ctx = ctx }

// Drained implements Breaker.
func (h *HashAggregate) Drained() *Operator { return &h.Input }

// ParallelForm implements Breaker: per-morsel partial tables, merged in
// morsel order.
func (h *HashAggregate) ParallelForm(src Morseler, pipe PipelineFunc, workers int) (Operator, bool) {
	return parallelForm(NewParallelHashAggregate(src, pipe, h.GroupBy, h.Aggs, workers))
}

// aggGroup is one hash-table entry during the build.
type aggGroup struct {
	keys   Row
	states []*aggState
}

func newAggGroup(keys Row, naggs int) *aggGroup {
	grp := &aggGroup{keys: keys, states: make([]*aggState, naggs)}
	for i := range grp.states {
		grp.states[i] = newAggState()
	}
	return grp
}

// hashAggBuilder accumulates grouped aggregate state batch- or row-wise. It
// is the build machinery shared by HashAggregate and the per-morsel partial
// aggregations of ParallelHashAggregate: concurrent workers each fill a
// builder, the partials combine with mergeFrom, and finish renders the
// key-sorted result rows — so serial and parallel plans produce groups in
// the identical order.
type hashAggBuilder struct {
	groupBy []int
	aggs    []AggSpec
	groups  map[string]*aggGroup
	// fast maps a single numeric group-by key (its NumericSortKey word) to
	// its group without the per-row encode and string allocation. Below ±2^53
	// the word is the whole of the value's encoded key, so grouping by it is
	// grouping by the encoded key and the final key-sorted output is that of
	// the generic path; it is the workload's common case (Q1-Q6 all group on
	// one date or int column). From ±2^53 on adjacent integers share a word
	// (the encoded key tells them apart by its integer suffix), so those
	// values, like NULL and string keys (and multi-column groupings), take
	// the generic encoded-key path (groupWord); both paths share the groups
	// map.
	fast   map[uint64]*aggGroup
	fastOK bool
	keyBuf []byte
}

// groupWord returns the word the single-column fast map keys v by; ok is
// false for the values that must take the encoded-key path instead.
func groupWord(v value.Value) (word uint64, ok bool) {
	if v.Kind == value.KindNull || v.Kind == value.KindString {
		return 0, false
	}
	return value.NumericGroupWord(v)
}

func newHashAggBuilder(groupBy []int, aggs []AggSpec) *hashAggBuilder {
	b := &hashAggBuilder{
		groupBy: groupBy,
		aggs:    aggs,
		groups:  make(map[string]*aggGroup),
		fastOK:  len(groupBy) == 1,
	}
	if b.fastOK {
		b.fast = make(map[uint64]*aggGroup)
	}
	return b
}

// consumeBatch folds one batch into the hash table.
func (hb *hashAggBuilder) consumeBatch(b *Batch) error {
	argVecs, err := aggArgVectors(hb.aggs, b)
	if err != nil {
		return err
	}
	n := b.NumRows()
	keyVals := make(Row, len(hb.groupBy))
	// lookupSlow is the generic encoded-key group lookup; keyVals must
	// already hold the group key. The numeric single-column fast path
	// stays inline in the loops below.
	lookupSlow := func() *aggGroup {
		hb.keyBuf = value.EncodeKey(hb.keyBuf[:0], keyVals)
		grp, ok := hb.groups[string(hb.keyBuf)]
		if !ok {
			grp = newAggGroup(append(Row(nil), keyVals...), len(hb.aggs))
			hb.groups[string(hb.keyBuf)] = grp
		}
		return grp
	}
	lookupFast := func(v value.Value, bits uint64) *aggGroup {
		grp := hb.fast[bits]
		if grp == nil {
			grp = newAggGroup(Row{v}, len(hb.aggs))
			hb.fast[bits] = grp
			hb.groups[string(value.EncodeKey(nil, grp.keys))] = grp
		}
		return grp
	}
	seg := newSegmentIter(b, hb.groupBy, argVecs)
	if seg.flat {
		// All-flat batch: the plain per-row loop over raw slices, with
		// the numeric fast path fully inline (this is the executor's
		// hottest loop). Only the columns the loop actually reads are
		// flattened — untouched compressed columns stay compressed.
		groupFlats := make([][]value.Value, len(hb.groupBy))
		for k, g := range hb.groupBy {
			groupFlats[k] = b.Cols[g].Flat()
		}
		argFlats := flatColumns(argVecs)
		fastOK, fast := hb.fastOK, hb.fast
		for i := 0; i < n; i++ {
			p := b.PhysIdx(i)
			var grp *aggGroup
			if fastOK {
				v := groupFlats[0][p]
				if bits, ok := groupWord(v); ok {
					grp = fast[bits]
					if grp == nil {
						grp = newAggGroup(Row{v}, len(hb.aggs))
						fast[bits] = grp
						hb.groups[string(value.EncodeKey(nil, grp.keys))] = grp
					}
				}
			}
			if grp == nil {
				for k := range hb.groupBy {
					keyVals[k] = groupFlats[k][p]
				}
				grp = lookupSlow()
			}
			for j, a := range hb.aggs {
				var v value.Value
				if a.Kind != AggCountStar {
					v = argFlats[j][p]
				}
				grp.states[j].add(v, a.Kind)
			}
		}
		return nil
	}
	// Compressed batch: walk maximal constant segments — a whole
	// batch for Const vectors, a clipped run for RLE — so
	// COUNT/SUM over a run collapse to a single addN.
	for i := 0; i < n; {
		p, reps := seg.next(i)
		var grp *aggGroup
		if hb.fastOK {
			v := b.Cols[hb.groupBy[0]].Get(p)
			if bits, ok := groupWord(v); ok {
				grp = lookupFast(v, bits)
			}
		}
		if grp == nil {
			for k, g := range hb.groupBy {
				keyVals[k] = b.Cols[g].Get(p)
			}
			grp = lookupSlow()
		}
		for j, a := range hb.aggs {
			var v value.Value
			if a.Kind != AggCountStar {
				v = argVecs[j].Get(p)
			}
			grp.states[j].addN(v, int64(reps), a.Kind)
		}
		i += reps
	}
	return nil
}

// consumeRow folds one row into the hash table (the row-at-a-time build).
func (hb *hashAggBuilder) consumeRow(row Row) error {
	keyVals := make(Row, len(hb.groupBy))
	for i, g := range hb.groupBy {
		keyVals[i] = row[g]
	}
	key := string(value.EncodeKey(nil, keyVals))
	grp, ok := hb.groups[key]
	if !ok {
		grp = newAggGroup(keyVals, len(hb.aggs))
		hb.groups[key] = grp
	}
	return accumulate(grp.states, hb.aggs, row)
}

// mergeFrom folds another builder's partial groups into hb — the
// partial→final combine of parallel aggregation. The other builder must have
// been built over the same groupBy/aggs and is consumed by the call. Per-key
// state merges are independent, so only the relative order of mergeFrom
// calls matters for float-sum rounding; ParallelHashAggregate merges morsel
// partials in morsel order to keep results deterministic.
func (hb *hashAggBuilder) mergeFrom(o *hashAggBuilder) {
	// The numeric fast map is not maintained across merges; disable it so a
	// later consumeBatch cannot resurrect a stale entry and shadow a merged
	// group.
	hb.fastOK = false
	hb.fast = nil
	for key, og := range o.groups {
		grp, ok := hb.groups[key]
		if !ok {
			hb.groups[key] = og
			continue
		}
		for i := range grp.states {
			grp.states[i].merge(og.states[i], hb.aggs[i].Kind)
		}
	}
}

// finish renders the accumulated groups as result rows sorted by encoded
// group key. A global aggregate (no GROUP BY) over empty input yields its
// single row here.
func (hb *hashAggBuilder) finish() []Row {
	if len(hb.groupBy) == 0 && len(hb.groups) == 0 {
		hb.groups[""] = newAggGroup(nil, len(hb.aggs))
	}
	keys := make([]string, 0, len(hb.groups))
	for k := range hb.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Row, 0, len(keys))
	for _, k := range keys {
		grp := hb.groups[k]
		out = append(out, finishGroup(grp.keys, grp.states, hb.aggs))
	}
	return out
}

// build drains the input (batch-wise or row-wise) into the hash table and
// sorts the finished groups by encoded key, checking the applied context once
// per batch of drained input.
func (h *HashAggregate) build(batchWise bool) error {
	hb := newHashAggBuilder(h.GroupBy, h.Aggs)
	if batchWise {
		for {
			if err := ctxErr(h.ctx); err != nil {
				return err
			}
			b, ok, err := h.Input.NextBatch()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := hb.consumeBatch(b); err != nil {
				return err
			}
		}
	} else {
		for n := 0; ; n++ {
			if n%DefaultBatchSize == 0 {
				if err := ctxErr(h.ctx); err != nil {
					return err
				}
			}
			row, ok, err := h.Input.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := hb.consumeRow(row); err != nil {
				return err
			}
		}
	}
	h.results = hb.finish()
	h.pos = 0
	h.built = true
	return nil
}

// aggArgVectors evaluates aggregate arguments over a batch, leaving nil
// vectors for COUNT(*). Argument vectors keep whatever encoding the kernels
// preserved, so the segment walk can consume them run-wise.
func aggArgVectors(aggs []AggSpec, b *Batch) ([]*vector.Vector, error) {
	out := make([]*vector.Vector, len(aggs))
	physN := b.physRows()
	for j, a := range aggs {
		if a.Kind == AggCountStar || a.Arg == nil {
			continue
		}
		vec, err := expr.EvalVector(a.Arg, b.Cols, b.Sel, physN)
		if err != nil {
			return nil, err
		}
		out[j] = vec
	}
	return out, nil
}

// flatColumns returns each vector's per-row slice (nil entries stay nil).
// Callers use it on all-flat batches, where Flat() is zero-copy.
func flatColumns(vecs []*vector.Vector) [][]value.Value {
	out := make([][]value.Value, len(vecs))
	for i, v := range vecs {
		if v != nil {
			out[i] = v.Flat()
		}
	}
	return out
}

// segmentIter walks a batch's live rows in maximal constant segments: a
// segment covers physically contiguous live rows over which every tracked
// vector (group columns and aggregate arguments) is known to repeat one
// value — a whole batch for Const vectors, a clipped run for RLE or Dict.
// Aggregates fold a segment with a single addN, which is how COUNT or SUM
// over an RLE run becomes one multiply. When every tracked vector is Flat
// the walk degenerates to the plain per-row loop.
type segmentIter struct {
	b       *Batch
	tracked []*vector.Vector
	flat    bool
}

func newSegmentIter(b *Batch, groupBy []int, argVecs []*vector.Vector) *segmentIter {
	it := &segmentIter{b: b, flat: true}
	for _, g := range groupBy {
		it.tracked = append(it.tracked, b.Cols[g])
	}
	for _, v := range argVecs {
		if v != nil {
			it.tracked = append(it.tracked, v)
		}
	}
	for _, v := range it.tracked {
		if v.Encoding() != vector.Flat {
			it.flat = false
			break
		}
	}
	return it
}

// next returns the physical index of live row i and the number of live rows
// in the constant segment starting there (at least 1).
func (s *segmentIter) next(i int) (p, reps int) {
	p = s.b.PhysIdx(i)
	if s.flat {
		return p, 1
	}
	end := s.b.physRows()
	for _, v := range s.tracked {
		if e := v.RunEndAt(p); e < end {
			end = e
		}
	}
	sel := s.b.Sel
	if sel == nil {
		// No selection: live rows are contiguous by construction, so the
		// whole clipped run is one segment — COUNT/SUM over it is one addN.
		return p, end - p
	}
	// Under a selection, extend only across physically consecutive live rows
	// (filters over RLE columns produce contiguous index ranges, so this
	// still recovers whole runs).
	reps = 1
	for i+reps < len(sel) && p+reps < end && sel[i+reps] == p+reps {
		reps++
	}
	return p, reps
}

// foldGlobal folds one batch into the single group of a global (no GROUP BY)
// aggregate, column-at-a-time: each aggregate consumes its whole argument
// vector in a kind-specialized loop instead of paying a Vector.Get dispatch
// and an addN call per row per aggregate. Compressed vectors fold run-at-a-
// time through addN, which already collapses a run to one operation.
func foldGlobal(states []*aggState, aggs []AggSpec, b *Batch, argVecs []*vector.Vector) {
	n := b.NumRows()
	for j, a := range aggs {
		st := states[j]
		if a.Kind == AggCountStar {
			st.count += int64(n)
			continue
		}
		vec := argVecs[j]
		if vec.Encoding() == vector.Flat {
			st.foldFlat(vec.Flat(), b.Sel, a.Kind)
			continue
		}
		end := b.physRows()
		if sel := b.Sel; sel != nil {
			// A run's value is constant over [p, RunEndAt(p)), so every
			// selected row inside it folds as one (value, count) pair.
			for i := 0; i < len(sel); {
				p := sel[i]
				e := vec.RunEndAt(p)
				reps := 1
				for i+reps < len(sel) && sel[i+reps] < e {
					reps++
				}
				st.addN(vec.Get(p), int64(reps), a.Kind)
				i += reps
			}
			continue
		}
		for p := 0; p < end; {
			e := vec.RunEndAt(p)
			st.addN(vec.Get(p), int64(e-p), a.Kind)
			p = e
		}
	}
}

// foldFlat folds a flat argument column into the state with the per-kind loop
// bodies of addN inlined — the global aggregate's hottest path. Each body
// reproduces addN's semantics exactly (NULL skip, count/seen updates, the
// numeric/string comparison rules of value.Compare for same-kind pairs).
func (s *aggState) foldFlat(vals []value.Value, sel []int, kind AggKind) {
	switch kind {
	case AggSum, AggAvg:
		count, sumF, sumI, intOnly, seen := s.count, s.sum, s.sumInt, s.intOnly, s.seen
		fold := func(v *value.Value) {
			switch v.Kind {
			case value.KindNull:
				return
			case value.KindFloat:
				intOnly = false
				sumF += v.F
				sumI += int64(v.F)
			case value.KindInt, value.KindDate, value.KindBool:
				sumF += float64(v.I)
				sumI += v.I
			default:
				// Strings fold as zero, matching Value.Float/Int.
			}
			count++
			seen = true
		}
		if sel == nil {
			for i := range vals {
				fold(&vals[i])
			}
		} else {
			for _, p := range sel {
				fold(&vals[p])
			}
		}
		s.count, s.sum, s.sumInt, s.intOnly, s.seen = count, sumF, sumI, intOnly, seen
	case AggMin:
		count, cur, seen := s.count, s.min, s.seen
		fold := func(v value.Value) {
			if v.Kind == value.KindNull {
				return
			}
			count++
			seen = true
			if cur.Kind == value.KindNull {
				cur = v
				return
			}
			if v.Kind == cur.Kind {
				switch v.Kind {
				case value.KindInt, value.KindDate, value.KindBool:
					if v.I < cur.I {
						cur = v
					}
					return
				case value.KindFloat:
					if v.F < cur.F {
						cur = v
					}
					return
				case value.KindString:
					if v.S < cur.S {
						cur = v
					}
					return
				}
			}
			if value.Compare(v, cur) < 0 {
				cur = v
			}
		}
		if sel == nil {
			for i := range vals {
				fold(vals[i])
			}
		} else {
			for _, p := range sel {
				fold(vals[p])
			}
		}
		s.count, s.min, s.seen = count, cur, seen
	case AggMax:
		count, cur, seen := s.count, s.max, s.seen
		fold := func(v value.Value) {
			if v.Kind == value.KindNull {
				return
			}
			count++
			seen = true
			if cur.Kind == value.KindNull {
				cur = v
				return
			}
			if v.Kind == cur.Kind {
				switch v.Kind {
				case value.KindInt, value.KindDate, value.KindBool:
					if v.I > cur.I {
						cur = v
					}
					return
				case value.KindFloat:
					if v.F > cur.F {
						cur = v
					}
					return
				case value.KindString:
					if v.S > cur.S {
						cur = v
					}
					return
				}
			}
			if value.Compare(v, cur) > 0 {
				cur = v
			}
		}
		if sel == nil {
			for i := range vals {
				fold(vals[i])
			}
		} else {
			for _, p := range sel {
				fold(vals[p])
			}
		}
		s.count, s.max, s.seen = count, cur, seen
	default: // AggCount: count the non-NULLs
		count, seen := s.count, s.seen
		if sel == nil {
			for i := range vals {
				if vals[i].Kind != value.KindNull {
					count++
					seen = true
				}
			}
		} else {
			for _, p := range sel {
				if vals[p].Kind != value.KindNull {
					count++
					seen = true
				}
			}
		}
		s.count, s.seen = count, seen
	}
}

func accumulate(states []*aggState, aggs []AggSpec, row Row) error {
	for i, a := range aggs {
		var v value.Value
		if a.Kind != AggCountStar {
			var err error
			v, err = a.Arg.Eval(row)
			if err != nil {
				return err
			}
		}
		states[i].add(v, a.Kind)
	}
	return nil
}

func finishGroup(keys Row, states []*aggState, aggs []AggSpec) Row {
	out := make(Row, 0, len(keys)+len(aggs))
	out = append(out, keys...)
	for i, a := range aggs {
		out = append(out, states[i].result(a.Kind))
	}
	return out
}

// Next implements Operator.
func (h *HashAggregate) Next() (Row, bool, error) {
	if !h.built {
		if err := h.build(false); err != nil {
			return nil, false, err
		}
	}
	if h.pos >= len(h.results) {
		return nil, false, nil
	}
	row := h.results[h.pos]
	h.pos++
	return row, true, nil
}

// NextBatch implements Operator.
func (h *HashAggregate) NextBatch() (*Batch, bool, error) {
	if !h.built {
		if err := h.build(true); err != nil {
			return nil, false, err
		}
	}
	if h.pos >= len(h.results) {
		return nil, false, nil
	}
	return batchFromRows(h.results, &h.pos, len(h.schema)), true, nil
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.results = nil
	h.built = false
	return h.Input.Close()
}

// StreamAggregate groups an input that is already ordered (clustered) on the
// group-by columns, emitting each group as soon as it ends. It never
// materializes more than one group, which is how the paper's "stream-based
// operator" after an intermediate sort behaves.
type StreamAggregate struct {
	Input   Operator
	GroupBy []int
	Aggs    []AggSpec

	schema  []ColumnInfo
	curKeys Row
	states  []*aggState
	started bool
	done    bool
	pending Row
}

// NewStreamAggregate builds a streaming grouping operator. The caller must
// guarantee the input is grouped on the group-by columns (equal keys adjacent).
func NewStreamAggregate(input Operator, groupBy []int, aggs []AggSpec) *StreamAggregate {
	return &StreamAggregate{Input: input, GroupBy: groupBy, Aggs: aggs, schema: aggSchema(input, groupBy, aggs)}
}

// Schema implements Operator.
func (s *StreamAggregate) Schema() []ColumnInfo { return s.schema }

// Open implements Operator.
func (s *StreamAggregate) Open() error {
	s.curKeys, s.states, s.pending = nil, nil, nil
	s.started, s.done = false, false
	return s.Input.Open()
}

// Child implements Parent.
func (s *StreamAggregate) Child(i int) *Operator { return slot(i, &s.Input) }

// ReplanInputs implements Replanner.
func (s *StreamAggregate) ReplanInputs() bool { return true }

// Drained implements Breaker. A serial stream aggregate holds one group at a
// time; its parallel form materializes per-morsel runs.
func (s *StreamAggregate) Drained() *Operator { return &s.Input }

// ParallelForm implements Breaker: per-morsel ordered runs, seam groups merged.
func (s *StreamAggregate) ParallelForm(src Morseler, pipe PipelineFunc, workers int) (Operator, bool) {
	return parallelForm(NewParallelStreamAggregate(src, pipe, s.GroupBy, s.Aggs, workers))
}

func (s *StreamAggregate) newStates() []*aggState {
	states := make([]*aggState, len(s.Aggs))
	for i := range states {
		states[i] = newAggState()
	}
	return states
}

// Next implements Operator.
func (s *StreamAggregate) Next() (Row, bool, error) {
	if s.done {
		return nil, false, nil
	}
	for {
		row, ok, err := s.Input.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			if !s.started {
				if len(s.GroupBy) == 0 {
					// Global aggregate over empty input yields one row.
					return finishGroup(nil, s.newStates(), s.Aggs), true, nil
				}
				return nil, false, nil
			}
			return finishGroup(s.curKeys, s.states, s.Aggs), true, nil
		}
		keyVals := make(Row, len(s.GroupBy))
		for i, g := range s.GroupBy {
			keyVals[i] = row[g]
		}
		if !s.started {
			s.started = true
			s.curKeys = keyVals
			s.states = s.newStates()
		} else if !rowsEqual(keyVals, s.curKeys) {
			result := finishGroup(s.curKeys, s.states, s.Aggs)
			s.curKeys = keyVals
			s.states = s.newStates()
			if err := accumulate(s.states, s.Aggs, row); err != nil {
				return nil, false, err
			}
			return result, true, nil
		}
		if err := accumulate(s.states, s.Aggs, row); err != nil {
			return nil, false, err
		}
	}
}

// NextBatch implements Operator. It consumes whole input batches,
// evaluating aggregate arguments vector-at-a-time, and emits one batch of
// finished groups per input batch that closes at least one group.
func (s *StreamAggregate) NextBatch() (*Batch, bool, error) {
	if s.done {
		return nil, false, nil
	}
	out := NewBatch(len(s.schema), DefaultBatchSize)
	for {
		b, ok, err := s.Input.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			switch {
			case s.started:
				out.AppendRow(finishGroup(s.curKeys, s.states, s.Aggs))
			case len(s.GroupBy) == 0:
				// Global aggregate over empty input yields one row.
				out.AppendRow(finishGroup(nil, s.newStates(), s.Aggs))
			}
			if out.physRows() == 0 {
				return nil, false, nil
			}
			return out, true, nil
		}
		argVecs, err := aggArgVectors(s.Aggs, b)
		if err != nil {
			return nil, false, err
		}
		if len(s.GroupBy) == 0 {
			// Global aggregate: one group for the whole input, so the
			// per-segment key machinery is pure overhead — fold each
			// argument column in one pass.
			if !s.started {
				s.started = true
				s.curKeys = nil
				s.states = s.newStates()
			}
			foldGlobal(s.states, s.Aggs, b, argVecs)
			continue
		}
		seg := newSegmentIter(b, s.GroupBy, argVecs)
		n := b.NumRows()
		for i := 0; i < n; {
			// The group key is constant across a segment by construction, so
			// the key comparison runs once per segment and the aggregates
			// consume the segment as one (value, count) pair.
			p, reps := seg.next(i)
			keyVals := make(Row, len(s.GroupBy))
			for k, g := range s.GroupBy {
				keyVals[k] = b.Cols[g].Get(p)
			}
			if !s.started {
				s.started = true
				s.curKeys = keyVals
				s.states = s.newStates()
			} else if !rowsEqual(keyVals, s.curKeys) {
				out.AppendRow(finishGroup(s.curKeys, s.states, s.Aggs))
				s.curKeys = keyVals
				s.states = s.newStates()
			}
			for j, a := range s.Aggs {
				var v value.Value
				if a.Kind != AggCountStar {
					v = argVecs[j].Get(p)
				}
				s.states[j].addN(v, int64(reps), a.Kind)
			}
			i += reps
		}
		if out.physRows() > 0 {
			return out, true, nil
		}
	}
}

// streamAggRun accumulates the ordered groups of one contiguous range of a
// grouped input (a morsel) for streaming aggregation: keys and states in
// first-seen order, no group dropped. Because morsels are consecutive ranges
// of the grouped input, two adjacent runs can share at most the group at
// their seam — appendRun merges it — so concatenating the runs in morsel
// order reproduces the serial StreamAggregate's groups exactly.
type streamAggRun struct {
	groupBy []int
	aggs    []AggSpec
	keys    []Row
	states  [][]*aggState
}

func newStreamAggRun(groupBy []int, aggs []AggSpec) *streamAggRun {
	return &streamAggRun{groupBy: groupBy, aggs: aggs}
}

// consumeBatch folds one batch (grouped on the group-by columns, like the
// whole input) into the run.
func (r *streamAggRun) consumeBatch(b *Batch) error {
	argVecs, err := aggArgVectors(r.aggs, b)
	if err != nil {
		return err
	}
	seg := newSegmentIter(b, r.groupBy, argVecs)
	n := b.NumRows()
	for i := 0; i < n; {
		// The group key is constant across a segment by construction, so the
		// key comparison runs once per segment and the aggregates consume the
		// segment as one (value, count) pair.
		p, reps := seg.next(i)
		keyVals := make(Row, len(r.groupBy))
		for k, g := range r.groupBy {
			keyVals[k] = b.Cols[g].Get(p)
		}
		last := len(r.keys) - 1
		if last < 0 || !rowsEqual(keyVals, r.keys[last]) {
			states := make([]*aggState, len(r.aggs))
			for j := range states {
				states[j] = newAggState()
			}
			r.keys = append(r.keys, keyVals)
			r.states = append(r.states, states)
			last++
		}
		for j, a := range r.aggs {
			var v value.Value
			if a.Kind != AggCountStar {
				v = argVecs[j].Get(p)
			}
			r.states[last][j].addN(v, int64(reps), a.Kind)
		}
		i += reps
	}
	return nil
}

// appendRun concatenates the next morsel's run onto r, merging the seam
// group when the two runs meet inside one group.
func (r *streamAggRun) appendRun(o *streamAggRun) {
	start := 0
	if last := len(r.keys) - 1; last >= 0 && len(o.keys) > 0 && rowsEqual(r.keys[last], o.keys[0]) {
		for j := range r.states[last] {
			r.states[last][j].merge(o.states[0][j], r.aggs[j].Kind)
		}
		start = 1
	}
	r.keys = append(r.keys, o.keys[start:]...)
	r.states = append(r.states, o.states[start:]...)
}

// finish renders the run's groups as rows in input order. A global aggregate
// (no GROUP BY) over empty input yields its single row here.
func (r *streamAggRun) finish() []Row {
	if len(r.keys) == 0 && len(r.groupBy) == 0 {
		states := make([]*aggState, len(r.aggs))
		for j := range states {
			states[j] = newAggState()
		}
		return []Row{finishGroup(nil, states, r.aggs)}
	}
	out := make([]Row, len(r.keys))
	for i := range r.keys {
		out[i] = finishGroup(r.keys[i], r.states[i], r.aggs)
	}
	return out
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if value.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// Close implements Operator.
func (s *StreamAggregate) Close() error { return s.Input.Close() }
