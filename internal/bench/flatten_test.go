package bench

import (
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/plan"
	"oldelephant/internal/sql"
	"oldelephant/internal/vector"
)

// planSerial compiles sqlText over e's catalog into the serial,
// batch-at-a-time operator tree the planner builds before any parallel
// rewrite.
func planSerial(tb testing.TB, e *engine.Engine, sqlText string) *plan.Plan {
	tb.Helper()
	stmt, err := sql.ParseSelect(sqlText)
	if err != nil {
		tb.Fatalf("%v\nSQL: %s", err, sqlText)
	}
	p, err := plan.NewPlanner(e.Catalog()).PlanSelect(stmt)
	if err != nil {
		tb.Fatalf("%v\nSQL: %s", err, sqlText)
	}
	return p
}

// flatVectors passes its input's batches through with every column
// decompressed to a Flat vector: the executor as it runs without the
// Const/RLE/Dict encodings, for the flat-vs-compressed comparisons. seen, if
// set, counts the encodings of the vectors it decompressed.
type flatVectors struct {
	exec.Operator
	seen map[vector.Encoding]int
}

func (f flatVectors) NextBatch() (*exec.Batch, bool, error) {
	b, ok, err := f.Operator.NextBatch()
	if !ok || err != nil {
		return b, ok, err
	}
	cols := make([]*vector.Vector, len(b.Cols))
	for i, v := range b.Cols {
		if f.seen != nil {
			f.seen[v.Encoding()]++
		}
		cols[i] = vector.NewFlat(v.Flat())
	}
	out := exec.NewBatchFromVectors(cols)
	out.Sel = b.Sel
	return out, true, nil
}

// flattenScans puts flatVectors over every table scan and index seek of the
// plan rooted at op and returns the new root; seen (may be nil) counts the
// encodings the scans produced. A plan with no scan to flatten fails the
// test.
func flattenScans(tb testing.TB, op exec.Operator, seen map[vector.Encoding]int) exec.Operator {
	tb.Helper()
	flattened := 0
	var walk func(exec.Operator) exec.Operator
	walk = func(op exec.Operator) exec.Operator {
		switch op.(type) {
		case *exec.TableScan, *exec.IndexSeek:
			flattened++
			return flatVectors{Operator: op, seen: seen}
		}
		if p, ok := op.(exec.Parent); ok {
			for i := 0; p.Child(i) != nil; i++ {
				*p.Child(i) = walk(*p.Child(i))
			}
		}
		return op
	}
	root := walk(op)
	if flattened == 0 {
		tb.Fatal("plan has no table scan or index seek to flatten")
	}
	return root
}
