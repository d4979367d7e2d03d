package bench

import (
	"testing"

	"oldelephant/internal/colstore"
	"oldelephant/internal/exec"
	"oldelephant/internal/vector"
)

// flatVectors passes its input's batches through with every column
// decompressed to a Flat vector: the executor as it runs without the
// Const/RLE/Dict encodings, for the flat-vs-compressed comparisons.
type flatVectors struct{ exec.Operator }

func (f flatVectors) NextBatch() (*exec.Batch, bool, error) {
	b, ok, err := f.Operator.NextBatch()
	if !ok || err != nil {
		return b, ok, err
	}
	cols := make([]*vector.Vector, len(b.Cols))
	for i, v := range b.Cols {
		cols[i] = vector.NewFlat(v.Flat())
	}
	out := exec.NewBatchFromVectors(cols)
	out.Sel = b.Sel
	return out, true, nil
}

// flattenScans puts flatVectors over every projection scan of the plan
// rooted at op and returns the new root; a plan with no scan to flatten
// fails the test.
func flattenScans(tb testing.TB, op exec.Operator) exec.Operator {
	tb.Helper()
	flattened := 0
	var walk func(exec.Operator) exec.Operator
	walk = func(op exec.Operator) exec.Operator {
		if scan, ok := op.(*colstore.ProjectionScan); ok {
			flattened++
			return flatVectors{scan}
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
		tb.Fatal("plan has no projection scan to flatten")
	}
	return root
}
