package exec

import "context"

// Cooperative cancellation for the serving layer. Execution checks the
// context at batch boundaries — between NextBatch calls on the plan root —
// which bounds the cancellation latency to one batch of downstream work for
// pipelined plans. Materializing breakers (sort, aggregation, a join build)
// consume their whole input inside one NextBatch, so the drains also push
// the context into the breakers with ApplyContext: their drain loops check it
// once per batch (or per DefaultBatchSize rows on the row path), bounding
// cancellation latency to one batch of work even mid-materialization. The
// admission queue, where most of a saturated server's waiting happens,
// cancels immediately.

// ctxErr is the nil-tolerant context check of the drains and the breaker
// drain loops: running without a context pays one nil test.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ApplyContext pushes ctx into every materializing breaker of the operator
// tree rooted at op: Sort, HashAggregate, the shared build state of a
// vectorized hash join (one set covers every probe-side clone), and the
// parallel breakers' merge loops. Pipelined operators are walked through but
// hold no context themselves — the root drain loop covers them. Each
// breaker's Open (or build-state reset) clears its context, so a plan leased
// from the plan cache never sees a stale context from a previous execution;
// callers must therefore apply the context after Open.
func ApplyContext(op any, ctx context.Context) {
	switch o := op.(type) {
	case *Sort:
		o.ctx = ctx
		ApplyContext(o.Input, ctx)
	case *HashAggregate:
		o.ctx = ctx
		ApplyContext(o.Input, ctx)
	case *VectorizedHashJoin:
		o.shared.setContext(ctx)
		ApplyContext(o.Probe, ctx)
		ApplyContext(o.Build, ctx)
	case *ParallelHashAggregate:
		o.parallelBreaker.ctx = ctx
	case *ParallelStreamAggregate:
		o.parallelBreaker.ctx = ctx
	case *ParallelSort:
		o.parallelBreaker.ctx = ctx
	case *Filter:
		ApplyContext(o.Input, ctx)
	case *Project:
		ApplyContext(o.Input, ctx)
	case *Limit:
		ApplyContext(o.Input, ctx)
	case *StreamAggregate:
		ApplyContext(o.Input, ctx)
	case *BatchSource:
		ApplyContext(o.Input, ctx)
	case *RowSource:
		ApplyContext(o.Input, ctx)
	case *HashJoin:
		ApplyContext(o.Left, ctx)
		ApplyContext(o.Right, ctx)
	case *MergeJoin:
		ApplyContext(o.Left, ctx)
		ApplyContext(o.Right, ctx)
	case *NestedLoopJoin:
		ApplyContext(o.Left, ctx)
		ApplyContext(o.Right, ctx)
	case *IndexNestedLoopJoin:
		ApplyContext(o.Outer, ctx)
	case *tracedBatch:
		ApplyContext(o.op, ctx)
	case *tracedRow:
		ApplyContext(o.op, ctx)
	}
}
