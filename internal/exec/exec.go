// Package exec implements the physical query-execution operators of the row
// store. Operators follow the Volcano iterator model — Open, repeated pulls,
// Close — and every operator answers both pulls: Next, one row at a time (the
// reference path the differential tests compare against), and NextBatch, a
// column-major batch at a time (what the vectorized engine drains). Rows are
// slices of value.Value; every operator exposes the schema of the rows it
// produces so parents can bind expressions by ordinal.
//
// The operator set mirrors what the paper relies on in SQL Server:
// clustered-index scans, index seeks on secondary covering indexes,
// index-nested-loop joins whose inner range depends on the outer row (the
// "band joins" used for c-tables), merge and hash joins, and stream- and
// hash-based aggregation.
//
// A plan node describes itself: beside the pulls it declares, where it has
// them, its child slots (Parent), a span name other than its type name
// (TraceName), and the capabilities the tree walks look for — ContextTaker,
// Replanner, MorselCloner, Breaker, SpanAnnotator. ApplyContext,
// InstrumentPlan and plan.Parallelize walk any tree through those
// declarations alone, so adding an operator is one file and no switch.
package exec

import (
	"context"
	"fmt"

	"oldelephant/internal/value"
)

// Row is one tuple flowing between operators.
type Row = []value.Value

// ColumnInfo describes one output column of an operator.
type ColumnInfo struct {
	Name string
	Kind value.Kind
}

// Operator is a physical plan node. Within one Open/Close a caller uses one
// of the two pulls, not both.
type Operator interface {
	// Schema describes the rows produced by Next and carried by NextBatch.
	Schema() []ColumnInfo
	// Open prepares the operator for iteration.
	Open() error
	// Next returns the next row. ok is false when the input is exhausted.
	Next() (row Row, ok bool, err error)
	// NextBatch returns the next non-empty batch; ok is false at end of
	// input. Parents must not retain or mutate a returned batch's columns
	// after the following NextBatch call.
	NextBatch() (b *Batch, ok bool, err error)
	// Close releases resources. It is safe to call after a failed Open.
	Close() error
}

// Parent is declared by operators that have inputs.
type Parent interface {
	// Child returns the i-th input slot in plan order, nil once i is past
	// the last. The tree walks replace inputs through the slot
	// (InstrumentPlan wraps them, plan.Parallelize swaps in parallel forms),
	// and an index rather than a slice keeps the per-execution context push
	// free of allocations.
	Child(i int) *Operator
}

// slot implements Child over an operator's input fields.
func slot(i int, slots ...*Operator) *Operator {
	if i < len(slots) {
		return slots[i]
	}
	return nil
}

// drainWith is the protocol the two drains share: Open, push the context
// (after Open, which clears the breakers' previous one), pull until dry,
// Close. ctx may be nil (run to completion); otherwise it is pushed into the
// plan's breakers (see ApplyContext) and checked before every pull, and its
// error (DeadlineExceeded or Canceled) is returned as soon as it fires. pull
// appends one batch's worth of rows and reports whether more may follow.
func drainWith(ctx context.Context, op Operator, pull func(out []Row) ([]Row, bool, error)) ([]Row, error) {
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
	for more := true; more; {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		var err error
		if out, more, err = pull(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Drain runs an operator to completion through the row pull and returns all
// produced rows. The context is checked once per DefaultBatchSize rows, so
// the row-at-a-time path pays one atomic load per batch-equivalent, not per
// row.
func Drain(ctx context.Context, op Operator) ([]Row, error) {
	return drainWith(ctx, op, func(out []Row) ([]Row, bool, error) {
		for i := 0; i < DefaultBatchSize; i++ {
			row, ok, err := op.Next()
			if err != nil || !ok {
				return out, false, err
			}
			out = append(out, row)
		}
		return out, true, nil
	})
}

// DrainBatches runs an operator to completion through the batch pull,
// returning all produced rows in row-major form.
func DrainBatches(ctx context.Context, op Operator) ([]Row, error) {
	return drainWith(ctx, op, func(out []Row) ([]Row, bool, error) {
		b, ok, err := op.NextBatch()
		if err != nil || !ok {
			return out, false, err
		}
		return b.AppendRows(out), true, nil
	})
}

// DrainEach runs an operator to completion through the batch pull, as
// DrainBatches does, but hands each batch to fn as it comes instead of
// collecting rows. fn must not keep the batch past its return.
func DrainEach(ctx context.Context, op Operator, fn func(*Batch) error) error {
	_, err := drainWith(ctx, op, func(out []Row) ([]Row, bool, error) {
		b, ok, err := op.NextBatch()
		if err != nil || !ok {
			return out, false, err
		}
		return out, true, fn(b)
	})
	return err
}

// concatSchemas appends two schemas (used by joins).
func concatSchemas(a, b []ColumnInfo) []ColumnInfo {
	out := make([]ColumnInfo, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// concatRows appends two rows into a fresh slice.
func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// errNotOpen is returned by operators used before Open.
func errNotOpen(op string) error { return fmt.Errorf("exec: %s used before Open", op) }

// ValuesScan produces a fixed list of rows; it backs INSERT ... VALUES,
// constant SELECTs and tests.
type ValuesScan struct {
	Cols []ColumnInfo
	Rows []Row
	pos  int
}

// NewValuesScan builds a ValuesScan.
func NewValuesScan(cols []ColumnInfo, rows []Row) *ValuesScan {
	return &ValuesScan{Cols: cols, Rows: rows}
}

// Schema implements Operator.
func (v *ValuesScan) Schema() []ColumnInfo { return v.Cols }

// Open implements Operator.
func (v *ValuesScan) Open() error { v.pos = 0; return nil }

// Next implements Operator.
func (v *ValuesScan) Next() (Row, bool, error) {
	if v.pos >= len(v.Rows) {
		return nil, false, nil
	}
	row := v.Rows[v.pos]
	v.pos++
	return row, true, nil
}

// NextBatch implements Operator.
func (v *ValuesScan) NextBatch() (*Batch, bool, error) {
	if v.pos >= len(v.Rows) {
		return nil, false, nil
	}
	return batchFromRows(v.Rows, &v.pos, len(v.Cols)), true, nil
}

// Close implements Operator.
func (v *ValuesScan) Close() error { return nil }
