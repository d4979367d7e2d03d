package exec

import (
	"fmt"
	"time"

	"oldelephant/internal/trace"
)

// Operator instrumentation for EXPLAIN ANALYZE. InstrumentPlan rewrites an
// operator tree so that every node reports rows, batches, calls and inclusive
// wall time into a trace.Span tree. Instrumentation is wrapper-based: a plan
// that is not instrumented contains no tracing code at all — the untraced hot
// path is byte-for-byte the same executable as before this package existed,
// which is how the "zero overhead when tracing is off" contract is met.
//
// Parallel operators (ParallelMerge and the parallelBreaker family) are
// instrumented as leaves: their worker goroutines must not share a Span, so
// the wrapper observes only the merged output stream and the static
// worker/morsel structure is reported as span attributes. The same applies to
// a vectorized hash join's parallel build, which reports build-side
// cardinality and worker count as attributes instead of a wrapped subtree.

// tracedRow instruments a row-only operator. It deliberately does NOT
// implement BatchOperator: AsBatchOperator must keep bridging the underlying
// operator through BatchSource exactly as it would unwrapped.
type tracedRow struct {
	op      Operator
	sp      *trace.Span
	onClose func(*trace.Span)
}

// Schema implements Operator.
func (t *tracedRow) Schema() []ColumnInfo { return t.op.Schema() }

// Open implements Operator.
func (t *tracedRow) Open() error {
	start := time.Now()
	err := t.op.Open()
	t.sp.Wall += time.Since(start)
	return err
}

// Next implements Operator.
func (t *tracedRow) Next() (Row, bool, error) {
	start := time.Now()
	row, ok, err := t.op.Next()
	t.sp.Wall += time.Since(start)
	t.sp.Calls++
	if ok {
		t.sp.Rows++
	}
	return row, ok, err
}

// Close implements Operator.
func (t *tracedRow) Close() error {
	start := time.Now()
	err := t.op.Close()
	t.sp.Wall += time.Since(start)
	if t.onClose != nil {
		t.onClose(t.sp)
	}
	return err
}

// tracedBatch instruments an operator that is batch-native (implements both
// protocols), preserving batch-nativeness so AsBatchOperator and the engine's
// protocol selection behave identically to the unwrapped plan.
type tracedBatch struct {
	op interface {
		Operator
		BatchOperator
	}
	sp      *trace.Span
	onClose func(*trace.Span)
}

// Schema implements Operator and BatchOperator.
func (t *tracedBatch) Schema() []ColumnInfo { return t.op.Schema() }

// Open implements Operator and BatchOperator.
func (t *tracedBatch) Open() error {
	start := time.Now()
	err := t.op.Open()
	t.sp.Wall += time.Since(start)
	return err
}

// Next implements Operator.
func (t *tracedBatch) Next() (Row, bool, error) {
	start := time.Now()
	row, ok, err := t.op.Next()
	t.sp.Wall += time.Since(start)
	t.sp.Calls++
	if ok {
		t.sp.Rows++
	}
	return row, ok, err
}

// NextBatch implements BatchOperator.
func (t *tracedBatch) NextBatch() (*Batch, bool, error) {
	start := time.Now()
	b, ok, err := t.op.NextBatch()
	t.sp.Wall += time.Since(start)
	t.sp.Calls++
	if ok {
		t.sp.Batches++
		t.sp.Rows += int64(b.NumRows())
	}
	return b, ok, err
}

// Close implements Operator and BatchOperator.
func (t *tracedBatch) Close() error {
	start := time.Now()
	err := t.op.Close()
	t.sp.Wall += time.Since(start)
	if t.onClose != nil {
		t.onClose(t.sp)
	}
	return err
}

// InstrumentPlan wraps every operator of the tree rooted at root with a
// tracing collector and returns the instrumented root together with the root
// of the matching span tree. The returned operator must be executed instead
// of the original (child links inside the original tree are rewritten to
// point at wrappers). Instrumented plans must not be returned to a plan
// cache.
func InstrumentPlan(root Operator) (Operator, *trace.Span) {
	return instrument(root)
}

// wrap builds the protocol-preserving wrapper for op.
func wrap(op Operator, name string, onClose func(*trace.Span)) (Operator, *trace.Span) {
	sp := trace.New(name)
	if b, ok := op.(interface {
		Operator
		BatchOperator
	}); ok {
		return &tracedBatch{op: b, sp: sp, onClose: onClose}, sp
	}
	return &tracedRow{op: op, sp: sp, onClose: onClose}, sp
}

// instrument recursively wraps op's children (rewriting the exported child
// fields in place), then wraps op itself.
func instrument(op Operator) (Operator, *trace.Span) {
	switch o := op.(type) {
	case *TableScan:
		name := "SeqScan"
		if o.Bounded() {
			name = "ClusteredSeek"
		}
		return wrap(o, fmt.Sprintf("%s(%s)", name, o.Table.Name), nil)
	case *IndexSeek:
		return wrap(o, fmt.Sprintf("IndexSeek(%s.%s)", o.Index.Table.Name, o.Index.Name), nil)
	case *ValuesScan:
		return wrap(o, "ValuesScan", nil)
	case *Filter:
		child, csp := instrument(o.Input)
		o.Input = child
		return adopt(wrap(o, "Filter", nil))(csp)
	case *Project:
		child, csp := instrument(o.Input)
		o.Input = child
		return adopt(wrap(o, "Project", nil))(csp)
	case *Limit:
		child, csp := instrument(o.Input)
		o.Input = child
		return adopt(wrap(o, "Limit", nil))(csp)
	case *Sort:
		child, csp := instrument(o.Input)
		o.Input = child
		return adopt(wrap(o, "Sort", nil))(csp)
	case *HashAggregate:
		child, csp := instrument(o.Input)
		o.Input = child
		return adopt(wrap(o, "HashAggregate", nil))(csp)
	case *StreamAggregate:
		child, csp := instrument(o.Input)
		o.Input = child
		return adopt(wrap(o, "StreamAggregate", nil))(csp)
	case *RowSource:
		// Protocol adapters are invisible in the trace: descend through them
		// without a span of their own. (BatchSource never appears here — it
		// only exists inside AsBatchOperator results built at drain time,
		// after instrumentation.)
		if inner, ok := o.Input.(Operator); ok {
			child, csp := instrument(inner)
			o.Input = AsBatchOperator(child)
			return o, csp
		}
		return wrap(o, "RowSource", nil)
	case *NestedLoopJoin:
		l, lsp := instrument(o.Left)
		r, rsp := instrument(o.Right)
		o.Left, o.Right = l, r
		return adopt(wrap(o, "NestedLoopJoin", nil))(lsp, rsp)
	case *HashJoin:
		l, lsp := instrument(o.Left)
		r, rsp := instrument(o.Right)
		o.Left, o.Right = l, r
		return adopt(wrap(o, "HashJoin", nil))(lsp, rsp)
	case *MergeJoin:
		l, lsp := instrument(o.Left)
		r, rsp := instrument(o.Right)
		o.Left, o.Right = l, r
		return adopt(wrap(o, "MergeJoin", nil))(lsp, rsp)
	case *IndexNestedLoopJoin:
		outer, osp := instrument(o.Outer)
		o.Outer = outer
		return adopt(wrap(o, "IndexNestedLoopJoin", nil))(osp)
	case *VectorizedHashJoin:
		probe, psp := instrument(o.Probe)
		o.Probe = probe
		onClose := func(sp *trace.Span) {
			o.shared.mu.Lock()
			if o.shared.table != nil {
				sp.SetAttr("build_rows", int64(o.shared.table.numRows()))
			}
			o.shared.mu.Unlock()
			if w := o.BuildParallelism(); w > 1 {
				sp.SetAttr("build_workers", int64(w))
			}
		}
		if o.shared.src == nil && !o.isClone {
			// Serial build: the build drain pulls through j.Build, so the
			// build subtree can be instrumented like any other.
			build, bsp := instrument(o.Build)
			o.Build = build
			return adopt(wrap(o, "VectorizedHashJoin", onClose))(psp, bsp)
		}
		// Parallel build bypasses j.Build (it re-partitions the scan), so the
		// build side stays unwrapped and reports through attributes only.
		return adopt(wrap(o, "VectorizedHashJoin", onClose))(psp)
	case *ParallelMerge:
		w, sp := wrap(o, "ParallelMerge", nil)
		sp.SetAttr("workers", int64(min(o.workers, len(o.parts))))
		sp.SetAttr("morsels", int64(len(o.parts)))
		return w, sp
	case *ParallelHashAggregate:
		return wrapBreaker(o, &o.parallelBreaker)
	case *ParallelStreamAggregate:
		return wrapBreaker(o, &o.parallelBreaker)
	case *ParallelSort:
		return wrapBreaker(o, &o.parallelBreaker)
	default:
		// Unknown operator: trace it as a leaf named by its dynamic type.
		return wrap(o, fmt.Sprintf("%T", o), nil)
	}
}

// wrapBreaker instruments a parallel pipeline breaker as a leaf with
// worker/morsel attributes (its internals run on worker goroutines and must
// not share a span).
func wrapBreaker(op Operator, b *parallelBreaker) (Operator, *trace.Span) {
	w, sp := wrap(op, b.name, nil)
	sp.SetAttr("workers", int64(min(b.workers, len(b.parts))))
	sp.SetAttr("morsels", int64(len(b.parts)))
	return w, sp
}

// adopt attaches child spans to a freshly wrapped parent span.
func adopt(op Operator, sp *trace.Span) func(children ...*trace.Span) (Operator, *trace.Span) {
	return func(children ...*trace.Span) (Operator, *trace.Span) {
		sp.Children = append(sp.Children, children...)
		return op, sp
	}
}
