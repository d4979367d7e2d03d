package plan

import (
	"oldelephant/internal/exec"
)

// ParallelRowThreshold is the scan cardinality below which parallelization is
// not attempted: small scans finish in well under the cost of spinning up a
// worker pool, and morsel partitioning needs enough rows to balance.
const ParallelRowThreshold = 8192

// Parallelize rewrites a compiled operator tree for morsel-driven execution
// with the given number of workers. It finds pipelines — a partitionable
// scan (exec.Morseler) under a stack of operators that can be re-instantiated
// per morsel (exec.MorselCloner: the stateless Filter/Project and vectorized
// hash joins), closed by a pipeline breaker (exec.Breaker: aggregate, sort)
// or by the plan root — and replaces each with its parallel form: per-worker
// pipeline clones over morsels, merged by ParallelMerge (row streams, morsel
// order), partial-aggregate combining (Hash/StreamAggregate), or an ordered
// K-way merge (Sort). The rewrite only decides which pipelines go parallel:
// each parallel operator splits its source into morsels as it opens and
// drops them as it closes, so a cached plan holds no morsel. A vectorized
// hash join is both: as a cloner its probe-side pipeline parallelizes
// through it (per-morsel clones share one built hash table), and as a
// breaker its build side hashes morsel-parallel into per-worker partitions
// merged in morsel order.
//
// The walk knows no operator by name. It descends only through operators that
// declare their inputs re-plannable (exec.Replanner); under any other — the
// row-at-a-time joins (NestedLoop, Merge, IndexNestedLoop and the oracle
// HashJoin), whose inputs may be re-opened per outer row, which a worker pool
// must not be — the subtree stays as planned.
//
// The rewrite preserves results exactly — merges re-establish serial order,
// so a parallel plan is distinguishable from its serial form only by float
// aggregation rounding (partials fold in morsel order) — and workers <= 1
// returns the tree untouched, byte-for-byte the serial plan. rewrote reports
// whether any pipeline or join build actually went parallel, so callers can
// annotate the plan they display.
func Parallelize(root exec.Operator, workers int) (out exec.Operator, rewrote bool) {
	if workers <= 1 {
		return root, false
	}
	p := &parallelizer{workers: workers}
	return p.rewrite(root), p.rewrote
}

// parallelizer carries one rewrite: the worker count, and whether anything
// went parallel.
type parallelizer struct {
	workers int
	rewrote bool
}

// rewrite returns the parallel form of the subtree rooted at op, or op with
// its re-plannable inputs rewritten in place.
func (p *parallelizer) rewrite(op exec.Operator) exec.Operator {
	r, ok := op.(exec.Replanner)
	if !ok || !r.ReplanInputs() {
		return op
	}
	// op heads a pipeline with no breaker above it (it sits under a Limit,
	// another join's build, the root): merge the morsels' row streams.
	if src, pipe, ok := p.pipeline(op); ok {
		if par, ok := exec.NewParallelMerge(src, pipe, p.workers); ok {
			p.rewrote = true
			return par
		}
	}
	if b, ok := op.(exec.Breaker); ok {
		if par, ok := p.parallelForm(b); ok && par != op {
			return par
		}
	}
	// A drained input that went parallel inside its breaker (a join's build)
	// is no longer among the children; any other is rewritten on its own.
	for i := 0; ; i++ {
		child := r.Child(i)
		if child == nil {
			return op
		}
		*child = p.rewrite(*child)
	}
}

// parallelForm asks a breaker whose drained input is a pipeline for its
// parallel form: a replacement operator, or b itself reconfigured.
func (p *parallelizer) parallelForm(b exec.Breaker) (exec.Operator, bool) {
	src, pipe, ok := p.pipeline(*b.Drained())
	if !ok {
		return nil, false
	}
	par, ok := b.ParallelForm(src, pipe, p.workers)
	p.rewrote = p.rewrote || ok
	return par, ok
}

// pipeline decomposes op into the stack of per-morsel-cloneable operators
// sitting on a partitionable source big enough to bother parallelizing, and
// returns the source with the function that re-instantiates the stack over a
// morsel (nil for a bare source). The chain descends through each cloner's
// first input — a join's probe side, whose clones probe one shared build
// table. ok is false when it bottoms out anywhere else (a row join, an
// aggregate, a non-partitionable scan) or below the cardinality threshold.
//
// A breaker absorbed into the stack (a join) is about to disappear from the
// tree into the per-morsel clones that share its build state, so its own
// drained input is parallelized here, before the clones exist: as its parallel
// form when that input is a pipeline too, as a rewritten subtree otherwise (a
// derived table with its own aggregate).
func (p *parallelizer) pipeline(op exec.Operator) (src exec.Morseler, pipe exec.PipelineFunc, ok bool) {
	var stack []exec.MorselCloner
	for {
		c, isCloner := op.(exec.MorselCloner)
		if !isCloner {
			break
		}
		stack = append(stack, c)
		op = *c.Child(0)
	}
	src, ok = op.(exec.Morseler)
	if !ok || src.NumScanRows() < ParallelRowThreshold {
		return nil, nil, false
	}
	if len(stack) == 0 {
		return src, nil, true
	}
	for _, c := range stack {
		if b, isBreaker := c.(exec.Breaker); isBreaker {
			if _, ok := p.parallelForm(b); !ok {
				drained := b.Drained()
				*drained = p.rewrite(*drained)
			}
		}
	}
	// Clones share the (immutable) expression trees but own all iteration
	// state.
	return src, func(morsel exec.Operator) exec.Operator {
		for i := len(stack) - 1; i >= 0; i-- {
			morsel = stack[i].CloneOver(morsel)
		}
		return morsel
	}, true
}
