package exec

import (
	"context"
	"errors"
	"fmt"

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

// ErrSumOverflow fails a statement whose SUM over integers leaves int64's
// range.
var ErrSumOverflow = errors.New("exec: integer SUM out of BIGINT range")

// addInt returns a+b and whether it overflowed int64.
func addInt(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) < 0
}

// addIntN returns a + b*n for n ≥ 1 and whether either step overflowed
// int64.
func addIntN(a, b, n int64) (int64, bool) {
	if n == 1 {
		return addInt(a, b)
	}
	p := b * n
	s, over := addInt(a, p)
	return s, over || p/n != b
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
	results *colResult
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

// build drains the input (batch-wise or row-wise) into the hash table and
// sorts the finished groups by encoded key, checking the applied context once
// per batch of drained input.
func (h *HashAggregate) build(batchWise bool) error {
	hb := newGroupTable(h.GroupBy, h.Aggs)
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
	res, err := hb.finish()
	if err != nil {
		return err
	}
	h.results = res
	h.pos = 0
	h.built = true
	return nil
}

// appendAggArgVectors appends the aggregate arguments evaluated over a batch
// to dst, a nil vector for COUNT(*). Argument vectors keep whatever encoding
// the kernels preserved, so the segment walk can consume them run-wise.
func appendAggArgVectors(dst []*vector.Vector, aggs []AggSpec, b *Batch) ([]*vector.Vector, error) {
	physN := b.physRows()
	for _, a := range aggs {
		if a.Kind == AggCountStar || a.Arg == nil {
			dst = append(dst, nil)
			continue
		}
		vec, err := expr.EvalVector(a.Arg, b.Cols, b.Sel, physN)
		if err != nil {
			return nil, err
		}
		dst = append(dst, vec)
	}
	return dst, nil
}

// segmentIter walks a batch's live rows in maximal constant segments: a
// segment covers physically contiguous live rows over which every tracked
// vector (group columns and aggregate arguments) is known to repeat one
// value — a whole batch for Const vectors, a clipped run for RLE or Dict.
// Aggregates fold a segment as one (value, count) pair, which is how COUNT
// or SUM over an RLE run becomes one multiply. When every tracked vector is Flat
// the walk degenerates to the plain per-row loop.
type segmentIter struct {
	b       *Batch
	tracked []*vector.Vector
	flat    bool
}

func newSegmentIter(b *Batch, groupBy []int, argVecs []*vector.Vector) *segmentIter {
	it := &segmentIter{}
	it.reset(b, groupBy, argVecs)
	return it
}

// reset points the iterator at another batch, reusing its tracked list.
func (it *segmentIter) reset(b *Batch, groupBy []int, argVecs []*vector.Vector) {
	it.b, it.flat, it.tracked = b, true, it.tracked[:0]
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

// Next implements Operator.
func (h *HashAggregate) Next() (Row, bool, error) {
	if !h.built {
		if err := h.build(false); err != nil {
			return nil, false, err
		}
	}
	if h.pos >= h.results.len() {
		return nil, false, nil
	}
	row := h.results.row(h.pos)
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
	b, ok := nextResultBatch(h.results, &h.pos)
	return b, ok, nil
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.results = nil
	h.built = false
	return h.Input.Close()
}

// StreamAggregate groups an input that is already ordered (clustered) on the
// group-by columns, emitting each group as soon as it ends. It holds only
// the groups of one input batch, which is how the paper's "stream-based
// operator" after an intermediate sort behaves.
type StreamAggregate struct {
	Input   Operator
	GroupBy []int
	Aggs    []AggSpec

	schema []ColumnInfo
	run    groupRun // the open group last, the ended ones before it
	// done is set at the input's end, finished once the last groups are
	// out.
	done, finished bool
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
	s.run = groupRun{newAggGroups(s.GroupBy, s.Aggs)}
	s.done, s.finished = false, false
	return s.Input.Open()
}

// Child implements Parent.
func (s *StreamAggregate) Child(i int) *Operator { return slot(i, &s.Input) }

// ReplanInputs implements Replanner.
func (s *StreamAggregate) ReplanInputs() bool { return true }

// Drained implements Breaker. A serial stream aggregate holds one batch's
// groups at a time; its parallel form materializes per-morsel runs.
func (s *StreamAggregate) Drained() *Operator { return &s.Input }

// ParallelForm implements Breaker: per-morsel ordered runs, seam groups merged.
func (s *StreamAggregate) ParallelForm(src Morseler, pipe PipelineFunc, workers int) (Operator, bool) {
	return parallelForm(NewParallelStreamAggregate(src, pipe, s.GroupBy, s.Aggs, workers))
}

// ended renders the groups that have ended — every one but the open last,
// or all of them once the input is done — and drops them.
func (s *StreamAggregate) ended() (colResult, error) {
	if s.finished {
		return newColResult(0, len(s.schema)), nil
	}
	m := s.run.n - 1
	if s.done {
		s.run.addGlobal()
		m, s.finished = s.run.n, true
	}
	res, err := s.run.result(nil, m)
	if err != nil {
		return colResult{}, err
	}
	s.run.dropFirst(m)
	return res, nil
}

// Next implements Operator.
func (s *StreamAggregate) Next() (Row, bool, error) {
	for s.run.n < 2 && !s.done {
		row, ok, err := s.Input.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			break
		}
		if err := s.run.foldRow(row, &s.run); err != nil {
			return nil, false, err
		}
	}
	res, err := s.ended()
	if err != nil || res.len() == 0 {
		return nil, false, err
	}
	return res.row(0), true, nil
}

// NextBatch implements Operator. It consumes whole input batches,
// evaluating aggregate arguments vector-at-a-time, and emits one batch of
// ended groups per input batch that ends at least one group.
func (s *StreamAggregate) NextBatch() (*Batch, bool, error) {
	for s.run.n < 2 && !s.done {
		b, ok, err := s.Input.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			break
		}
		if err := s.run.foldBatch(b, &s.run); err != nil {
			return nil, false, err
		}
	}
	res, err := s.ended()
	if err != nil || res.len() == 0 {
		return nil, false, err
	}
	return res.batch(0, res.len()), true, nil
}

// Close implements Operator. It drops the groups and the scratch, which
// refers to the input's last batch, so an idle cached plan holds neither.
func (s *StreamAggregate) Close() error {
	s.run = groupRun{}
	return s.Input.Close()
}
