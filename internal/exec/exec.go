// Package exec implements the physical query-execution operators of the row
// store. Operators follow the Volcano iterator model: Open, repeated Next,
// Close. Rows are slices of value.Value; every operator exposes the schema
// of the rows it produces so parents can bind expressions by ordinal.
//
// The operator set mirrors what the paper relies on in SQL Server: heap and
// clustered-index scans, index seeks on secondary covering indexes,
// index-nested-loop joins whose inner range depends on the outer row (the
// "band joins" used for c-tables), merge and hash joins, and stream- and
// hash-based aggregation.
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

// Operator is a physical plan node.
type Operator interface {
	// Schema describes the rows produced by Next.
	Schema() []ColumnInfo
	// Open prepares the operator for iteration.
	Open() error
	// Next returns the next row. ok is false when the input is exhausted.
	Next() (row Row, ok bool, err error)
	// Close releases resources. It is safe to call after a failed Open.
	Close() error
}

// Drain runs an operator to completion through the row protocol and returns
// all produced rows. ctx may be nil (run to completion); otherwise it is
// pushed into the plan's breakers (see ApplyContext) and checked once per
// DefaultBatchSize rows, so the row-at-a-time path pays one atomic load per
// batch-equivalent, not per row.
func Drain(ctx context.Context, op Operator) ([]Row, error) {
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
		for i := 0; i < DefaultBatchSize; i++ {
			row, ok, err := op.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return out, nil
			}
			out = append(out, row)
		}
	}
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

// NextBatch implements BatchOperator.
func (v *ValuesScan) NextBatch() (*Batch, bool, error) {
	if v.pos >= len(v.Rows) {
		return nil, false, nil
	}
	return batchFromRows(v.Rows, &v.pos, len(v.Cols)), true, nil
}

// Close implements Operator.
func (v *ValuesScan) Close() error { return nil }
