package exec

import (
	"context"

	"oldelephant/internal/expr"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// DefaultBatchSize is the number of rows a batch-producing operator emits per
// NextBatch call. 1024 follows MonetDB/X100: large enough to amortize the
// per-batch interpretation overhead, small enough that a batch's working set
// stays cache resident.
const DefaultBatchSize = 1024

// Batch is a column-major slice of rows flowing between vectorized operators:
// Cols[c] is the vector of column c, and every vector has the same logical
// length. Vectors carry their own encoding (Flat, Const, RLE, Dict), so a
// batch can flow through the executor in compressed form; decompression is
// lazy and happens only at protocol boundaries (row adapters, joins, result
// drains). An optional selection vector Sel lists the live physical row
// indices in ascending order (nil means all rows are live), which lets
// filters drop rows without copying the surviving ones.
type Batch struct {
	Cols []*vector.Vector
	Sel  []int
	// n tracks the physical row count for zero-column batches (a constant
	// SELECT's single empty row, for example); with columns present the
	// column length is authoritative.
	n int
}

// NewBatch returns an empty batch with ncols Flat columns, each with the
// given row capacity.
func NewBatch(ncols, capacity int) *Batch {
	cols := make([]*vector.Vector, ncols)
	for i := range cols {
		cols[i] = vector.NewFlatCap(capacity)
	}
	return &Batch{Cols: cols}
}

// NewBatchFromVectors wraps pre-built column vectors (possibly compressed)
// into a batch. All vectors must have the same length.
func NewBatchFromVectors(cols []*vector.Vector) *Batch {
	b := &Batch{Cols: cols}
	if len(cols) > 0 {
		b.n = cols[0].Len()
	}
	return b
}

// NumRows returns the number of live (selected) rows.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.physRows()
}

// physRows returns the physical row count, selected or not.
func (b *Batch) physRows() int {
	if len(b.Cols) == 0 {
		return b.n
	}
	return b.Cols[0].Len()
}

// PhysIdx maps a live row position (0..NumRows-1) to its physical index.
func (b *Batch) PhysIdx(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// AppendRow appends one row to a batch under construction. It must not be
// called on a batch with a selection vector or with compressed columns.
func (b *Batch) AppendRow(row Row) {
	for c := range b.Cols {
		b.Cols[c].Append(row[c])
	}
	b.n++
}

// Row materializes live row i as a freshly allocated row.
func (b *Batch) Row(i int) Row {
	p := b.PhysIdx(i)
	out := make(Row, len(b.Cols))
	for c := range b.Cols {
		out[c] = b.Cols[c].Get(p)
	}
	return out
}

// AppendRows appends every live row to dst (row-major) and returns it. It is
// how the engine's result collection converts batches back to rows — a
// protocol boundary, so compressed columns are decompressed here (once per
// column, not once per access).
func (b *Batch) AppendRows(dst []Row) []Row {
	n := b.NumRows()
	if n == 0 {
		return dst
	}
	flats := make([][]value.Value, len(b.Cols))
	for c := range b.Cols {
		flats[c] = b.Cols[c].Flat()
	}
	for i := 0; i < n; i++ {
		p := b.PhysIdx(i)
		out := make(Row, len(b.Cols))
		for c := range flats {
			out[c] = flats[c][p]
		}
		dst = append(dst, out)
	}
	return dst
}

// BatchOperator is a physical plan node that produces rows a batch at a time.
// Operators in this package implement both Operator and BatchOperator over
// shared Open/Close; the engine picks one pull protocol per query.
type BatchOperator interface {
	// Schema describes the rows carried by produced batches.
	Schema() []ColumnInfo
	// Open prepares the operator for iteration.
	Open() error
	// NextBatch returns the next non-empty batch; ok is false at end of
	// input. Parents must not retain or mutate a returned batch's columns
	// after the following NextBatch call.
	NextBatch() (b *Batch, ok bool, err error)
	// Close releases resources.
	Close() error
}

// AsBatchOperator views a row operator as a batch operator: operators that
// are batch-native are returned as-is, anything else (joins, user-supplied
// operators) is bridged with a BatchSource adapter.
func AsBatchOperator(op Operator) BatchOperator {
	if b, ok := op.(BatchOperator); ok {
		return b
	}
	return &BatchSource{Input: op}
}

// AsRowOperator views a batch operator as a row operator, bridging with a
// RowSource adapter when it is not row-native.
func AsRowOperator(op BatchOperator) Operator {
	if r, ok := op.(Operator); ok {
		return r
	}
	return &RowSource{Input: op}
}

// BatchSource adapts a row-at-a-time operator into the batch protocol by
// accumulating up to DefaultBatchSize rows per call. It is the bridge that
// lets not-yet-vectorized operators (joins, in particular) compose with
// vectorized parents in one plan.
type BatchSource struct {
	Input Operator
}

// Schema implements BatchOperator.
func (s *BatchSource) Schema() []ColumnInfo { return s.Input.Schema() }

// Open implements BatchOperator.
func (s *BatchSource) Open() error { return s.Input.Open() }

// NextBatch implements BatchOperator.
func (s *BatchSource) NextBatch() (*Batch, bool, error) {
	b := NewBatch(len(s.Input.Schema()), DefaultBatchSize)
	for b.physRows() < DefaultBatchSize {
		row, ok, err := s.Input.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		b.AppendRow(row)
	}
	if b.physRows() == 0 {
		return nil, false, nil
	}
	return b, true, nil
}

// Close implements BatchOperator.
func (s *BatchSource) Close() error { return s.Input.Close() }

// RowSource adapts a batch operator into the row protocol, emitting the live
// rows of each batch one at a time. It lets a row-only parent (a join's
// input, for example) sit on top of a batch-native subtree.
type RowSource struct {
	Input BatchOperator

	cur *Batch
	pos int
}

// Schema implements Operator.
func (s *RowSource) Schema() []ColumnInfo { return s.Input.Schema() }

// Open implements Operator.
func (s *RowSource) Open() error {
	s.cur, s.pos = nil, 0
	return s.Input.Open()
}

// Next implements Operator.
func (s *RowSource) Next() (Row, bool, error) {
	for s.cur == nil || s.pos >= s.cur.NumRows() {
		b, ok, err := s.Input.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		s.cur, s.pos = b, 0
	}
	row := s.cur.Row(s.pos)
	s.pos++
	return row, true, nil
}

// Close implements Operator.
func (s *RowSource) Close() error {
	s.cur = nil
	return s.Input.Close()
}

// DrainBatches runs a batch operator to completion, returning all produced
// rows in row-major form; wrap a row operator in AsBatchOperator to run it
// through the batch protocol. ctx may be nil (run to completion); otherwise
// it is pushed into the plan's breakers (see ApplyContext) and checked before
// every NextBatch, and its error (DeadlineExceeded or Canceled) is returned
// as soon as it fires.
func DrainBatches(ctx context.Context, op BatchOperator) ([]Row, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	if ctx != nil {
		ApplyContext(op, ctx)
	}
	var out []Row
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		b, ok, err := op.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = b.AppendRows(out)
	}
}

// evalProjectionVectors evaluates a list of expressions over a batch,
// returning physically aligned output vectors (encoding preserved where the
// kernels allow). Shared by Project and the vectorized aggregates.
func evalProjectionVectors(exprs []expr.Expr, b *Batch) ([]*vector.Vector, error) {
	n := b.physRows()
	out := make([]*vector.Vector, len(exprs))
	for i, e := range exprs {
		vec, err := expr.EvalVector(e, b.Cols, b.Sel, n)
		if err != nil {
			return nil, err
		}
		out[i] = vec
	}
	return out, nil
}

// batchFromRows copies up to DefaultBatchSize rows starting at *pos into a
// fresh batch, advancing *pos. It is how operators that materialize rows
// (sort, hash aggregation, values) emit them batch-wise.
func batchFromRows(rows []Row, pos *int, ncols int) *Batch {
	b := NewBatch(ncols, DefaultBatchSize)
	for *pos < len(rows) && b.physRows() < DefaultBatchSize {
		b.AppendRow(rows[*pos])
		*pos++
	}
	return b
}

// projectedBatch wraps projection output vectors into a batch that preserves
// the input's selection and physical row count.
func projectedBatch(vecs []*vector.Vector, src *Batch) *Batch {
	return &Batch{Cols: vecs, Sel: src.Sel, n: src.physRows()}
}
