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

// ContextTaker is declared by operators that consume an input whole inside
// one pull — Sort, HashAggregate, the row joins that materialize a side, the
// shared build of a vectorized hash join, the parallel breakers' merge loops
// — and check the context while they do. Their Open (or build-state reset)
// clears it, so a plan leased from the plan cache never sees the context of
// a previous execution.
type ContextTaker interface {
	SetContext(ctx context.Context)
}

// ApplyContext pushes ctx into every ContextTaker of the operator tree rooted
// at op. Pipelined operators are walked through but hold no context
// themselves — the root drain loop covers them. Because Open clears the
// context, callers must apply it after Open.
func ApplyContext(op Operator, ctx context.Context) {
	if t, ok := op.(ContextTaker); ok {
		t.SetContext(ctx)
	}
	if p, ok := op.(Parent); ok {
		for i := 0; ; i++ {
			child := p.Child(i)
			if child == nil {
				return
			}
			ApplyContext(*child, ctx)
		}
	}
}
