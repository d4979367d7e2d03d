package exec

import (
	"context"
	"sync"

	"oldelephant/internal/expr"
	"oldelephant/internal/keysort"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// Filter passes through rows for which the predicate evaluates to true. In
// batch mode it never copies surviving rows: it narrows each input batch's
// selection vector through the vectorized predicate kernels.
type Filter struct {
	Input Operator
	Pred  expr.Expr
}

// NewFilter wraps an operator with a predicate.
func NewFilter(input Operator, pred expr.Expr) *Filter {
	return &Filter{Input: input, Pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() []ColumnInfo { return f.Input.Schema() }

// Child implements Parent.
func (f *Filter) Child(i int) *Operator { return slot(i, &f.Input) }

// ReplanInputs implements Replanner.
func (f *Filter) ReplanInputs() bool { return true }

// CloneOver implements MorselCloner: a filter holds no state between rows.
func (f *Filter) CloneOver(input Operator) Operator { return NewFilter(input, f.Pred) }

// Open implements Operator.
func (f *Filter) Open() error { return f.Input.Open() }

// Next implements Operator.
func (f *Filter) Next() (Row, bool, error) {
	for {
		row, ok, err := f.Input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := expr.EvalBool(f.Pred, row)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return row, true, nil
		}
	}
}

// NextBatch implements Operator.
func (f *Filter) NextBatch() (*Batch, bool, error) {
	for {
		b, ok, err := f.Input.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		sel, err := expr.SelectVector(f.Pred, b.Cols, b.Sel, b.physRows())
		if err != nil {
			return nil, false, err
		}
		if len(sel) == 0 {
			continue
		}
		b.Sel = sel
		return b, true, nil
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Input.Close() }

// Project computes a list of expressions over each input row. In batch mode
// every expression is evaluated over whole vectors; plain column references
// pass the input vector through without copying.
type Project struct {
	Input Operator
	Exprs []expr.Expr
	Names []string

	schema []ColumnInfo
}

// NewProject builds a projection; names label the output columns.
func NewProject(input Operator, exprs []expr.Expr, names []string) *Project {
	schema := make([]ColumnInfo, len(exprs))
	inSchema := input.Schema()
	for i, e := range exprs {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		kind := value.KindNull
		if col, ok := e.(*expr.Column); ok && col.Index < len(inSchema) {
			kind = inSchema[col.Index].Kind
			if name == "" {
				name = inSchema[col.Index].Name
			}
		}
		schema[i] = ColumnInfo{Name: name, Kind: kind}
	}
	return &Project{Input: input, Exprs: exprs, Names: names, schema: schema}
}

// Schema implements Operator.
func (p *Project) Schema() []ColumnInfo { return p.schema }

// Child implements Parent.
func (p *Project) Child(i int) *Operator { return slot(i, &p.Input) }

// ReplanInputs implements Replanner.
func (p *Project) ReplanInputs() bool { return true }

// CloneOver implements MorselCloner: a projection holds no state between rows.
func (p *Project) CloneOver(input Operator) Operator { return NewProject(input, p.Exprs, p.Names) }

// Open implements Operator.
func (p *Project) Open() error { return p.Input.Open() }

// Next implements Operator.
func (p *Project) Next() (Row, bool, error) {
	row, ok, err := p.Input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

// NextBatch implements Operator.
func (p *Project) NextBatch() (*Batch, bool, error) {
	b, ok, err := p.Input.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	vecs, err := evalProjectionVectors(p.Exprs, b)
	if err != nil {
		return nil, false, err
	}
	return projectedBatch(vecs, b), true, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Input.Close() }

// Limit stops after emitting N rows (and skips Offset rows first).
type Limit struct {
	Input  Operator
	N      int64
	Offset int64

	emitted int64
	skipped int64
}

// NewLimit wraps an operator with LIMIT/OFFSET semantics. n < 0 means no limit.
func NewLimit(input Operator, n, offset int64) *Limit {
	return &Limit{Input: input, N: n, Offset: offset}
}

// Schema implements Operator.
func (l *Limit) Schema() []ColumnInfo { return l.Input.Schema() }

// Child implements Parent.
func (l *Limit) Child(i int) *Operator { return slot(i, &l.Input) }

// ReplanInputs implements Replanner.
func (l *Limit) ReplanInputs() bool { return true }

// Open implements Operator.
func (l *Limit) Open() error {
	l.emitted, l.skipped = 0, 0
	return l.Input.Open()
}

// Next implements Operator.
func (l *Limit) Next() (Row, bool, error) {
	for {
		if l.N >= 0 && l.emitted >= l.N {
			return nil, false, nil
		}
		row, ok, err := l.Input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if l.skipped < l.Offset {
			l.skipped++
			continue
		}
		l.emitted++
		return row, true, nil
	}
}

// NextBatch implements Operator.
func (l *Limit) NextBatch() (*Batch, bool, error) {
	for {
		if l.N >= 0 && l.emitted >= l.N {
			return nil, false, nil
		}
		b, ok, err := l.Input.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		n := b.NumRows()
		start := 0
		if l.skipped < l.Offset {
			need := l.Offset - l.skipped
			if int64(n) <= need {
				l.skipped += int64(n)
				continue
			}
			l.skipped += need
			start = int(need)
		}
		end := n
		if l.N >= 0 {
			if remaining := l.N - l.emitted; int64(end-start) > remaining {
				end = start + int(remaining)
			}
		}
		l.emitted += int64(end - start)
		if start == 0 && end == n {
			return b, true, nil
		}
		sel := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			sel = append(sel, b.PhysIdx(i))
		}
		b.Sel = sel
		return b, true, nil
	}
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Input.Close() }

// SortKey describes one ORDER BY term over the input schema.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materializes its input and emits it ordered by the sort keys. The
// materialization is deferred to the first Next/NextBatch call so that it can
// drain its input through whichever pull protocol the parent is using.
//
// It is the engine's one sort. The drained rows are held in a Slab, and as
// each arrives its key is encoded: its sort columns' value.AppendKeyValue
// bytes in turn, a DESC column's complemented, so the bytes order as
// value.Compare orders the columns, NULL lowest. keysort orders the
// positions. That order is stable and the same at any worker count, so a
// parallel plan — this Sort over a ParallelMerge, ordering and gathering on
// its workers — returns the serial plan's rows in the serial plan's order,
// ties included.
type Sort struct {
	Input Operator
	Keys  []SortKey

	workers int
	drained *Slab           // the input
	keys    []*keysort.Keys // the drained rows' keys
	order   []int           // rows of drained, in key order
	pos     int             // rows of order gathered
	out     []value.Value   // the columns of the batches gathered last
	ready   []*Batch        // the batches gathered and not yet emitted
	sorted  bool
	rows    batchRowCursor
	// ctx, when set by ApplyContext after Open, is checked inside the
	// materialization drain so cancellation is observed mid-sort, not only
	// after the whole input is consumed. Open clears it: a cache-leased plan
	// drained without a context must not see the previous execution's.
	ctx context.Context
}

// NewSort builds an in-memory sort.
func NewSort(input Operator, keys []SortKey) *Sort {
	return &Sort{Input: input, Keys: keys, workers: 1}
}

// Schema implements Operator.
func (s *Sort) Schema() []ColumnInfo { return s.Input.Schema() }

// Open implements Operator.
func (s *Sort) Open() error {
	s.drained, s.keys, s.order, s.pos, s.ready, s.sorted = nil, nil, nil, 0, nil, false
	s.rows.reset()
	s.ctx = nil
	return s.Input.Open()
}

// Child implements Parent.
func (s *Sort) Child(i int) *Operator { return slot(i, &s.Input) }

// ReplanInputs implements Replanner.
func (s *Sort) ReplanInputs() bool { return true }

// SetContext implements ContextTaker.
func (s *Sort) SetContext(ctx context.Context) { s.ctx = ctx }

// Drained implements Breaker.
func (s *Sort) Drained() *Operator { return &s.Input }

// ParallelForm implements Breaker: the Sort itself, draining the morsels'
// pipelines through a ParallelMerge, which hands them over in morsel order,
// and ordering and gathering on workers goroutines.
func (s *Sort) ParallelForm(src Morseler, pipe PipelineFunc, workers int) (Operator, bool) {
	merge, ok := NewParallelMerge(src, pipe, workers)
	if !ok {
		return nil, false
	}
	s.Input, s.workers = merge, workers
	return s, true
}

// materialize drains the input (batch-wise when the parent pulls batches),
// checking the applied context once per batch of drained input, and orders
// it.
func (s *Sort) materialize(batchWise bool) error {
	s.drained, s.keys, s.out = NewSlab(len(s.Schema())), nil, nil
	if batchWise {
		for {
			if err := ctxErr(s.ctx); err != nil {
				return err
			}
			b, ok, err := s.Input.NextBatch()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			n := s.drained.Len()
			s.drained.AppendBatch(b)
			for i := n; i < s.drained.Len(); i++ {
				s.appendKey(s.drained.Row(i))
			}
		}
	} else {
		for n := 0; ; n++ {
			if n%DefaultBatchSize == 0 {
				if err := ctxErr(s.ctx); err != nil {
					return err
				}
			}
			row, ok, err := s.Input.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			s.drained.AppendRows(row)
			s.appendKey(row)
		}
	}
	s.order, s.keys = keysort.Join(s.keys).OrderOn(s.workers), nil
	s.sorted = true
	return nil
}

// appendKey appends row's key to s.keys, in lists of DefaultBatchSize: its
// sort columns' value.AppendKeyValue bytes in turn, a DESC column's
// complemented.
func (s *Sort) appendKey(row []value.Value) {
	if len(s.keys) == 0 || s.keys[len(s.keys)-1].Len() == DefaultBatchSize {
		s.keys = append(s.keys, keysort.New(DefaultBatchSize, 9*len(s.Keys)))
	}
	keys := s.keys[len(s.keys)-1]
	buf := keys.Buf
	for _, k := range s.Keys {
		start := len(buf)
		buf = value.AppendKeyValue(buf, row[k.Col])
		if k.Desc {
			for j := start; j < len(buf); j++ {
				buf[j] = ^buf[j]
			}
		}
	}
	keys.Buf = buf
	keys.End()
}

// nextSorted returns the next DefaultBatchSize rows in key order. They are
// gathered up to workers batches at a time, a batch per goroutine, into
// columns the Sort reuses: a parent no longer reads a batch once it pulls the
// next.
func (s *Sort) nextSorted() (*Batch, bool, error) {
	if len(s.ready) == 0 {
		if s.pos >= len(s.order) {
			return nil, false, nil
		}
		s.gather()
	}
	b := s.ready[0]
	s.ready = s.ready[1:]
	return b, true, nil
}

// gather fills s.ready with the batches of up to the next workers times
// DefaultBatchSize rows in key order, one per goroutine.
func (s *Sort) gather() {
	width, size := s.drained.width, DefaultBatchSize
	if s.out == nil {
		s.out = make([]value.Value, min(len(s.order), s.workers*size)*width)
	}
	s.ready = make([]*Batch, min(s.workers, (len(s.order)-s.pos+size-1)/size))
	var wg sync.WaitGroup
	for w := range s.ready {
		at := s.order[s.pos+w*size : min(s.pos+(w+1)*size, len(s.order))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ready[w] = s.gatherBatch(at, s.out[w*size*width:(w*size+len(at))*width])
		}()
	}
	wg.Wait()
	s.pos = min(s.pos+len(s.ready)*size, len(s.order))
}

// gatherBatch copies the drained rows at, in that order, into out, column
// after column, and returns them as a batch.
func (s *Sort) gatherBatch(at []int, out []value.Value) *Batch {
	for i, p := range at {
		for c, v := range s.drained.Row(p) {
			out[c*len(at)+i] = v
		}
	}
	vecs := make([]*vector.Vector, s.drained.width)
	for c := range vecs {
		vecs[c] = vector.NewFlat(out[c*len(at) : (c+1)*len(at) : (c+1)*len(at)])
	}
	return NewBatchFromVectors(vecs)
}

// Next implements Operator.
func (s *Sort) Next() (Row, bool, error) {
	if !s.sorted {
		if err := s.materialize(false); err != nil {
			return nil, false, err
		}
	}
	return s.rows.next(s.nextSorted)
}

// NextBatch implements Operator.
func (s *Sort) NextBatch() (*Batch, bool, error) {
	if !s.sorted {
		if err := s.materialize(true); err != nil {
			return nil, false, err
		}
	}
	return s.nextSorted()
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.drained, s.keys, s.order, s.out, s.ready, s.sorted = nil, nil, nil, nil, nil, false
	return s.Input.Close()
}
