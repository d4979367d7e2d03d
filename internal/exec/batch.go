package exec

import (
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
// lazy and happens only where rows are needed (the row cursor of a
// batch-only operator, joins, result drains). An optional selection vector
// Sel lists the live physical row indices in ascending order (nil means all
// rows are live), which lets filters drop rows without copying the surviving
// ones.
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
// column, not once per access). The rows share one allocation, each capped at
// its own end.
func (b *Batch) AppendRows(dst []Row) []Row {
	n := b.NumRows()
	if n == 0 {
		return dst
	}
	flats := make([][]value.Value, len(b.Cols))
	for c := range b.Cols {
		flats[c] = b.Cols[c].Flat()
	}
	w := len(b.Cols)
	slab := make([]value.Value, n*w)
	for i := 0; i < n; i++ {
		p := b.PhysIdx(i)
		out := slab[i*w : (i+1)*w : (i+1)*w]
		for c := range flats {
			out[c] = flats[c][p]
		}
		dst = append(dst, out)
	}
	return dst
}

// nextBatchFromRows implements NextBatch for an operator that only computes
// rows (the row joins, an uncovered index seek's lookups): up to
// DefaultBatchSize rows pulled through its own Next, copied into a fresh flat
// batch whose columns start at the given capacity.
func nextBatchFromRows(op Operator, capacity int) (*Batch, bool, error) {
	b := NewBatch(len(op.Schema()), capacity)
	for b.physRows() < DefaultBatchSize {
		row, ok, err := op.Next()
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

// batchRowCursor implements Next for an operator that only computes batches
// (the vectorized join, the parallel operators): the live rows of each batch
// it pulls through its own NextBatch, one at a time.
type batchRowCursor struct {
	cur *Batch
	pos int
}

func (c *batchRowCursor) reset() { c.cur, c.pos = nil, 0 }

func (c *batchRowCursor) next(pull func() (*Batch, bool, error)) (Row, bool, error) {
	for c.cur == nil || c.pos >= c.cur.NumRows() {
		b, ok, err := pull()
		if err != nil || !ok {
			return nil, false, err
		}
		c.cur, c.pos = b, 0
	}
	row := c.cur.Row(c.pos)
	c.pos++
	return row, true, nil
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
// fresh batch, advancing *pos. It is how ValuesScan, which holds its rows,
// emits them batch-wise.
func batchFromRows(rows []Row, pos *int, ncols int) *Batch {
	b := NewBatch(ncols, DefaultBatchSize)
	for *pos < len(rows) && b.physRows() < DefaultBatchSize {
		b.AppendRow(rows[*pos])
		*pos++
	}
	return b
}

// resultSet is a pipeline breaker's materialized output.
type resultSet interface {
	len() int
	// batch returns rows [from, to) as a batch.
	batch(from, to int) *Batch
}

// nextResultBatch returns the batch of up to DefaultBatchSize rows of res
// starting at *pos and advances *pos past it; ok is false at the end.
func nextResultBatch(res resultSet, pos *int) (*Batch, bool) {
	if *pos >= res.len() {
		return nil, false
	}
	from := *pos
	*pos = min(from+DefaultBatchSize, res.len())
	return res.batch(from, *pos), true
}

// projectedBatch wraps projection output vectors into a batch that preserves
// the input's selection and physical row count.
func projectedBatch(vecs []*vector.Vector, src *Batch) *Batch {
	return &Batch{Cols: vecs, Sel: src.Sel, n: src.physRows()}
}

// Slab holds rows of a fixed width, appended in blocks of slabRows rows, so
// an append never copies what the slab holds and n rows take n rows of
// memory, give or take a block, however many there turn out to be. A row's
// values lie side by side. Sort drains its input into a Slab.
type Slab struct {
	width  int
	blocks [][]value.Value
	n      int
}

// slabRows is the number of rows in a block of a Slab.
const slabRows = 4096

// NewSlab returns an empty slab of rows of width values.
func NewSlab(width int) *Slab { return &Slab{width: width} }

// Len is the number of rows in the slab.
func (s *Slab) Len() int { return s.n }

// Row returns row i, in place.
func (s *Slab) Row(i int) []value.Value {
	at := i % slabRows * s.width
	return s.blocks[i/slabRows][at : at+s.width : at+s.width]
}

// grow adds n rows, which must fit in the last block or a new one, and
// returns them. The first block starts small and doubles up to slabRows
// rows, so a small slab takes little memory.
func (s *Slab) grow(n int) []value.Value {
	at := s.n % slabRows
	if at == 0 {
		rows := slabRows
		if len(s.blocks) == 0 {
			rows = max(n, 64)
		}
		s.blocks = append(s.blocks, make([]value.Value, rows*s.width))
	}
	last := &s.blocks[len(s.blocks)-1]
	if end := (at + n) * s.width; end > len(*last) {
		grown := make([]value.Value, min(slabRows*s.width, max(end, 2*len(*last))))
		copy(grown, *last)
		*last = grown
	}
	s.n += n
	return (*last)[at*s.width : (at+n)*s.width]
}

// AppendRows appends rows of the slab's width, laid side by side in vals.
func (s *Slab) AppendRows(vals []value.Value) {
	for len(vals) > 0 {
		n := min(len(vals)/s.width, slabRows-s.n%slabRows)
		vals = vals[copy(s.grow(n), vals):]
	}
}

// AppendBatch appends the live rows of a batch of the slab's width.
func (s *Slab) AppendBatch(b *Batch) {
	flats := make([][]value.Value, s.width)
	for j := range flats {
		flats[j] = b.Cols[j].Flat()
	}
	for done, n := 0, b.NumRows(); done < n; {
		k := min(n-done, slabRows-s.n%slabRows)
		out := s.grow(k)
		for j, flat := range flats {
			for i := range k {
				out[i*s.width+j] = flat[b.PhysIdx(done+i)]
			}
		}
		done += k
	}
}
