// Morsel-driven parallel execution. A partitionable source (Morseler) splits
// its row range into morsels — small, self-contained scans over disjoint,
// consecutive row ranges — when the parallel operator over it opens, and the
// operator drops them when it closes, so a plan idle in the plan cache holds
// its source's bounds but no split. An atomic cursor hands morsels to a fixed
// pool of worker goroutines; each worker runs its own clone of the stateless
// operator pipeline (Filter/Project) over the morsels it claims, so scans,
// predicate kernels and partial aggregation all run concurrently. Compressed
// (Const/RLE/Dict) vectors flow through worker pipelines unchanged: a
// morsel's batches cross the worker boundary in whatever encoding the scan
// produced.
//
// Every merge operator re-establishes the serial order: ParallelMerge
// reassembles row streams in morsel order, the parallel aggregates combine
// per-morsel partial states in morsel order (so even float sums are
// reproducible run to run), and ParallelSort K-way-merges per-morsel sorted
// runs with a morsel-order tie-break, reproducing the serial stable sort.
// Result: a parallel plan returns exactly what the serial plan returns, made
// deterministic by construction rather than by scheduling luck.
package exec

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"oldelephant/internal/trace"
)

// DefaultMorselRows is the target number of rows per morsel: large enough to
// amortize per-morsel overhead (a handful of batches), small enough that the
// atomic cursor balances skewed pipelines across workers.
const DefaultMorselRows = 8 * DefaultBatchSize

// Morseler is a source that can split its row range into morsels. TableScan
// and IndexSeek (leaf-page runs of their range) and
// colstore.ProjectionScan (row windows) implement it.
type Morseler interface {
	Operator
	// NumScanRows reports the total row count available for partitioning —
	// the planner's parallelization threshold input.
	NumScanRows() int64
	// Morsels splits the source into operators over disjoint, consecutive
	// row ranges of roughly targetRows rows whose concatenation in slice
	// order reproduces the source's row stream exactly, however few there
	// are. Each morsel operator owns its cursor state and its buffers, so
	// distinct morsels can be scanned concurrently.
	// retain names the consumer's batch contract. With retain, the consumer
	// keeps a morsel's batches past later NextBatch calls and hands them
	// across goroutines (ParallelMerge, through drainPipe), so every
	// NextBatch must return freshly allocated (or immutable, never-recycled)
	// columns. Without it, the consumer folds each batch on the worker before
	// it pulls the next (the parallel aggregates, ParallelSort, the parallel
	// hash-join build), which is Operator's own contract: a morsel may refill
	// one set of column buffers across its batches, and it returns them when
	// it closes.
	// ok reports whether there are at least two morsels.
	Morsels(targetRows int, retain bool) (parts []Operator, ok bool)
	// NumMorsels is the number of morsels Morsels(targetRows, …) returns,
	// counted without making them: the planner's test of whether the source
	// parallelizes at all.
	NumMorsels(targetRows int) int
}

// PipelineFunc builds a fresh clone of the stateless operator pipeline
// (Filter/Project) that sits between the scan and the pipeline breaker. It is
// called once per morsel, possibly from concurrent workers, so it must not
// share mutable state between clones (shared expression trees are fine: they
// are immutable and their kernels are pure). At plan time it is also called
// once over the unsplit source, for the pipeline's schema and shared state.
type PipelineFunc func(src Operator) Operator

func identityPipeline(src Operator) Operator { return src }

// The three declarations plan.Parallelize rewrites a tree by. An operator
// that makes none of them is left exactly as planned, subtree included.

// Replanner is declared by operators whose inputs may be replaced by
// morsel-parallel forms: they open each input once per execution and pull it
// from the one goroutine that pulls them.
type Replanner interface {
	Parent
	ReplanInputs() bool
}

// MorselCloner is declared by operators that keep no state from one row of
// their first input to the next (a join's shared, read-only build aside), so
// a fresh instance can run over each morsel of it: they are the stack of a
// per-worker pipeline.
type MorselCloner interface {
	Parent
	// CloneOver returns a fresh instance reading input in place of Child(0).
	// It is called once per morsel, possibly from concurrent workers.
	CloneOver(input Operator) Operator
}

// Breaker is declared by operators that consume one input whole before they
// emit and have a form that consumes it as per-morsel pipelines on a worker
// pool.
type Breaker interface {
	// Drained returns the slot of the input consumed whole.
	Drained() *Operator
	// ParallelForm returns the operator that replaces this one when the
	// drained input is pipe (nil for none) over the morsels of src: a
	// Parallel* operator, or the receiver itself reconfigured. ok is false
	// when src cannot provide at least two morsels.
	ParallelForm(src Morseler, pipe PipelineFunc, workers int) (Operator, bool)
}

// SharedReleaser is declared by pipeline operators whose per-morsel clones
// share per-execution state (a hash join's built table). No clone releases
// it — sibling clones may still be reading it — and the operator they were
// cloned from, once plan.Parallelize absorbs it into a pipeline, is no longer
// in the tree to be closed. So the parallel operator that runs the pipeline
// calls ReleaseShared on Close, once its workers have stopped; without that,
// every idle cached plan would pin its build tables.
type SharedReleaser interface {
	ReleaseShared()
}

// sharedState returns the operators of a pipeline instance — the stack of
// morsel cloners above its source — that declare shared state.
func sharedState(pipeline Operator) []SharedReleaser {
	var out []SharedReleaser
	for op := pipeline; ; {
		if r, ok := op.(SharedReleaser); ok {
			out = append(out, r)
		}
		c, ok := op.(MorselCloner)
		if !ok {
			return out
		}
		op = *c.Child(0)
	}
}

func releaseShared(absorbed []SharedReleaser) {
	for _, r := range absorbed {
		r.ReleaseShared()
	}
}

// parallelForm boxes a NewParallel* result for ParallelForm, keeping a failed
// constructor's nil pointer out of the interface.
func parallelForm[T Operator](par T, ok bool) (Operator, bool) {
	if !ok {
		return nil, false
	}
	return par, true
}

// runnerResult is one morsel's outcome in flight from a worker.
type runnerResult struct {
	seq int
	val any
	err error
}

// orderedRunner fans a morsel list out to a pool of worker goroutines — the
// atomic cursor hands the next unclaimed morsel to whichever worker goes
// idle — and yields each morsel's result in morsel order (reordering happens
// at the consumer, so workers never wait for each other). A worker that
// panics fails the query with an error naming the operator and the morsel;
// the process goes on.
type orderedRunner struct {
	name    string // the operator, for errors
	parts   []Operator
	workers int
	fn      func(part Operator) (any, error)

	cursor  atomic.Int64
	results chan runnerResult
	quit    chan struct{}
	wg      sync.WaitGroup
	pending map[int]runnerResult
	next    int
	started bool
	stopped bool
}

func newOrderedRunner(name string, parts []Operator, workers int, fn func(Operator) (any, error)) *orderedRunner {
	if workers < 1 {
		workers = 1
	}
	if workers > len(parts) {
		workers = len(parts)
	}
	return &orderedRunner{name: name, parts: parts, workers: workers, fn: fn}
}

// run is fn over morsel seq, with a panic turned into its error.
func (r *orderedRunner) run(seq int) (val any, err error) {
	defer func() {
		if p := recover(); p != nil {
			val, err = nil, fmt.Errorf("exec: %s worker panicked on morsel %d of %d: %v", r.name, seq, len(r.parts), p)
		}
	}()
	return r.fn(r.parts[seq])
}

// start launches the worker pool. Called lazily from the first nextResult so
// an operator that is opened but never pulled does no work.
func (r *orderedRunner) start() {
	r.results = make(chan runnerResult, r.workers)
	r.quit = make(chan struct{})
	r.pending = make(map[int]runnerResult)
	r.started = true
	r.wg.Add(r.workers)
	for w := 0; w < r.workers; w++ {
		go func() {
			defer r.wg.Done()
			for {
				select {
				case <-r.quit:
					return
				default:
				}
				seq := int(r.cursor.Add(1)) - 1
				if seq >= len(r.parts) {
					return
				}
				val, err := r.run(seq)
				select {
				case r.results <- runnerResult{seq: seq, val: val, err: err}:
				case <-r.quit:
					return
				}
			}
		}()
	}
	go func() {
		r.wg.Wait()
		close(r.results)
	}()
}

// nextResult returns morsel results in morsel order; ok is false when every
// morsel has been delivered. The first error short-circuits.
func (r *orderedRunner) nextResult() (any, bool, error) {
	if !r.started {
		r.start()
	}
	for {
		if res, ok := r.pending[r.next]; ok {
			delete(r.pending, r.next)
			r.next++
			if res.err != nil {
				return nil, false, res.err
			}
			return res.val, true, nil
		}
		res, ok := <-r.results
		if !ok {
			return nil, false, nil
		}
		if res.err != nil {
			return nil, false, res.err
		}
		r.pending[res.seq] = res
	}
}

// stop shuts the worker pool down (early exit, Close, error); it is safe to
// call on a runner that never started and idempotent.
func (r *orderedRunner) stop() {
	if !r.started || r.stopped {
		return
	}
	r.stopped = true
	close(r.quit)
	// Drain so workers blocked on a send can observe quit and exit; the
	// channel closes once the pool has fully wound down.
	for range r.results {
	}
}

// splittable reports, at plan time, whether src splits into at least two
// morsels; it only counts them, and each Open makes them. build defaults to
// the identity pipeline.
func splittable(src Morseler, build PipelineFunc) (PipelineFunc, bool) {
	if src.NumMorsels(DefaultMorselRows) < 2 {
		return nil, false
	}
	if build == nil {
		build = identityPipeline
	}
	return build, true
}

// drainPipe opens a per-morsel pipeline, collects its batches and closes it.
// Retaining whole batches leans on the Morseler contract above: the morsels
// of a pipeline drained here are split with retain, so they never recycle
// batch buffers.
func drainPipe(pipe Operator) ([]*Batch, error) {
	var out []*Batch
	err := drainMorsel(pipe, func(b *Batch) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ParallelMerge executes per-worker clones of a stateless pipeline over the
// morsels of a partitionable source and merges the outputs back in morsel
// order, so the emitted row stream is byte-identical to the serial
// pipeline's. It is the merge operator for unordered (non-aggregating,
// non-sorting) parallel pipelines.
type ParallelMerge struct {
	src      Morseler
	build    PipelineFunc
	workers  int
	schema   []ColumnInfo
	absorbed []SharedReleaser

	parts  []Operator // this execution's morsels, split at Open
	runner *orderedRunner
	cur    []*Batch
	curIdx int
	rows   batchRowCursor
}

// NewParallelMerge builds a parallel pipeline over a partitionable source.
// ok is false when src cannot provide at least two morsels; build nil means
// the identity pipeline.
func NewParallelMerge(src Morseler, build PipelineFunc, workers int) (*ParallelMerge, bool) {
	build, ok := splittable(src, build)
	if !ok {
		return nil, false
	}
	proto := build(src)
	return &ParallelMerge{
		src:      src,
		build:    build,
		workers:  workers,
		schema:   proto.Schema(),
		absorbed: sharedState(proto),
	}, true
}

// Schema implements Operator.
func (m *ParallelMerge) Schema() []ColumnInfo { return m.schema }

// TraceAttrs implements SpanAnnotator.
func (m *ParallelMerge) TraceAttrs(sp *trace.Span) { poolAttrs(sp, m.workers, len(m.parts)) }

// poolAttrs reports a parallel operator's static structure. Its per-morsel
// pipelines run on worker goroutines, which must not share a span, so it is a
// leaf of the span tree and this is all the trace says of its inside.
func poolAttrs(sp *trace.Span, workers, morsels int) {
	sp.SetAttr("workers", int64(min(workers, morsels)))
	sp.SetAttr("morsels", int64(morsels))
}

// Open implements Operator: it splits the source for this execution.
func (m *ParallelMerge) Open() error {
	if m.runner != nil {
		m.runner.stop()
	}
	m.parts, _ = m.src.Morsels(DefaultMorselRows, true)
	m.runner = newOrderedRunner("ParallelMerge", m.parts, m.workers, func(part Operator) (any, error) {
		batches, err := drainPipe(m.build(part))
		if err != nil {
			return nil, err
		}
		return batches, nil
	})
	m.cur, m.curIdx = nil, 0
	m.rows.reset()
	return nil
}

// NextBatch implements Operator.
func (m *ParallelMerge) NextBatch() (*Batch, bool, error) {
	if m.runner == nil {
		return nil, false, errNotOpen("ParallelMerge")
	}
	for {
		if m.curIdx < len(m.cur) {
			b := m.cur[m.curIdx]
			m.curIdx++
			return b, true, nil
		}
		val, ok, err := m.runner.nextResult()
		if err != nil || !ok {
			return nil, false, err
		}
		m.cur, m.curIdx = val.([]*Batch), 0
	}
}

// Next implements Operator.
func (m *ParallelMerge) Next() (Row, bool, error) {
	return m.rows.next(m.NextBatch)
}

// Close implements Operator: the morsels go with the execution.
func (m *ParallelMerge) Close() error {
	if m.runner != nil {
		m.runner.stop()
		m.runner = nil
	}
	m.parts, m.cur = nil, nil
	releaseShared(m.absorbed)
	return nil
}

// parallelBreaker is the scaffolding shared by the materializing parallel
// pipeline breakers (the aggregates and the sort): a morsel runner whose
// per-morsel results — produced by morsel on the workers — merge in morsel
// order into materialized result rows. The concrete breakers supply only the
// two closures; lifecycle, the row/batch protocols and error plumbing live
// here once.
type parallelBreaker struct {
	name     string
	src      Morseler
	workers  int
	schema   []ColumnInfo
	absorbed []SharedReleaser // see SharedReleaser
	// morsel drains one per-morsel pipeline into the breaker's partial form;
	// it runs on the worker goroutines.
	morsel func(part Operator) (any, error)
	// merge folds the morsel partials — delivered in morsel order by next —
	// into the final result; it runs on the consumer.
	merge func(next func() (any, bool, error)) (resultSet, error)

	parts   []Operator // this execution's morsels, split at Open
	runner  *orderedRunner
	results resultSet
	built   bool
	pos     int
	rows    batchRowCursor
	// ctx, when set by ApplyContext after Open, is checked in the merge loop
	// between morsel partials, so cancellation is observed while workers are
	// still producing. Open clears it.
	ctx context.Context
}

// Schema implements Operator.
func (b *parallelBreaker) Schema() []ColumnInfo { return b.schema }

// SetContext implements ContextTaker.
func (b *parallelBreaker) SetContext(ctx context.Context) { b.ctx = ctx }

// TraceAttrs implements SpanAnnotator.
func (b *parallelBreaker) TraceAttrs(sp *trace.Span) { poolAttrs(sp, b.workers, len(b.parts)) }

// Open implements Operator: it splits the source for this execution.
func (b *parallelBreaker) Open() error {
	if b.runner != nil {
		b.runner.stop()
	}
	b.parts, _ = b.src.Morsels(DefaultMorselRows, false)
	b.runner = newOrderedRunner(b.name, b.parts, b.workers, b.morsel)
	b.results, b.built, b.pos = nil, false, 0
	b.rows.reset()
	b.ctx = nil
	return nil
}

// NextBatch implements Operator.
func (b *parallelBreaker) NextBatch() (*Batch, bool, error) {
	if b.runner == nil {
		return nil, false, errNotOpen(b.name)
	}
	if !b.built {
		next := b.runner.nextResult
		if b.ctx != nil {
			ctx, inner := b.ctx, next
			next = func() (any, bool, error) {
				if err := ctx.Err(); err != nil {
					return nil, false, err
				}
				return inner()
			}
		}
		res, err := b.merge(next)
		if err != nil {
			return nil, false, err
		}
		b.results, b.built, b.pos = res, true, 0
	}
	batch, ok := nextResultBatch(b.results, &b.pos)
	return batch, ok, nil
}

// Next implements Operator.
func (b *parallelBreaker) Next() (Row, bool, error) {
	return b.rows.next(b.NextBatch)
}

// Close implements Operator: the morsels go with the execution.
func (b *parallelBreaker) Close() error {
	if b.runner != nil {
		b.runner.stop()
		b.runner = nil
	}
	b.parts, b.results, b.built = nil, nil, false
	releaseShared(b.absorbed)
	return nil
}

// drainMorsel opens a per-morsel pipeline, feeds every batch to consume and
// closes it — the worker-side loop shared by the aggregate breakers.
func drainMorsel(pipe Operator, consume func(*Batch) error) error {
	if err := pipe.Open(); err != nil {
		return err
	}
	defer pipe.Close()
	for {
		b, ok, err := pipe.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := consume(b); err != nil {
			return err
		}
	}
}

// ParallelHashAggregate is the morsel-parallel form of HashAggregate: each
// worker aggregates whole morsels into private partial hash tables, the
// partials combine in morsel order (partial→final), and the merged groups
// are emitted sorted by encoded key — the identical rows, in the identical
// order, the serial operator produces.
type ParallelHashAggregate struct {
	parallelBreaker
}

// NewParallelHashAggregate builds a parallel hash aggregation over a
// partitionable source; build clones the pipeline between the scan and the
// aggregate (nil = aggregate the scan directly). ok is false when src cannot
// provide at least two morsels.
func NewParallelHashAggregate(src Morseler, build PipelineFunc, groupBy []int, aggs []AggSpec, workers int) (*ParallelHashAggregate, bool) {
	build, ok := splittable(src, build)
	if !ok {
		return nil, false
	}
	proto := build(src)
	return &ParallelHashAggregate{parallelBreaker{
		name:     "ParallelHashAggregate",
		src:      src,
		workers:  workers,
		schema:   aggSchemaFromCols(proto.Schema(), groupBy, aggs),
		absorbed: sharedState(proto),
		morsel: func(part Operator) (any, error) {
			t := newGroupTable(groupBy, aggs)
			if err := drainMorsel(build(part), t.consumeBatch); err != nil {
				return nil, err
			}
			return t, nil
		},
		merge: func(next func() (any, bool, error)) (resultSet, error) {
			var total *groupTable
			for {
				val, ok, err := next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				if total == nil {
					total = val.(*groupTable)
				} else {
					total.mergeFrom(val.(*groupTable))
				}
			}
			if total == nil {
				total = newGroupTable(groupBy, aggs)
			}
			return total.finish()
		},
	}}, true
}

// ParallelStreamAggregate is the morsel-parallel form of StreamAggregate
// over an input already grouped on the group-by columns: each worker
// stream-aggregates whole morsels into ordered partial runs, and the runs
// concatenate in morsel order — merging the one group that can straddle a
// morsel seam — to reproduce the serial operator's output exactly.
type ParallelStreamAggregate struct {
	parallelBreaker
}

// NewParallelStreamAggregate builds a parallel streaming aggregation over a
// partitionable source whose rows arrive grouped on the group-by columns
// (the same precondition as StreamAggregate). ok is false when src cannot
// provide at least two morsels.
func NewParallelStreamAggregate(src Morseler, build PipelineFunc, groupBy []int, aggs []AggSpec, workers int) (*ParallelStreamAggregate, bool) {
	build, ok := splittable(src, build)
	if !ok {
		return nil, false
	}
	proto := build(src)
	return &ParallelStreamAggregate{parallelBreaker{
		name:     "ParallelStreamAggregate",
		src:      src,
		workers:  workers,
		schema:   aggSchemaFromCols(proto.Schema(), groupBy, aggs),
		absorbed: sharedState(proto),
		morsel: func(part Operator) (any, error) {
			run := newGroupRun(groupBy, aggs)
			if err := drainMorsel(build(part), func(b *Batch) error { return run.foldBatch(b, run) }); err != nil {
				return nil, err
			}
			return run, nil
		},
		merge: func(next func() (any, bool, error)) (resultSet, error) {
			total := newGroupRun(groupBy, aggs)
			for {
				val, ok, err := next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				total.appendRun(val.(*groupRun))
			}
			total.addGlobal()
			res, err := total.result(nil, total.n)
			return &res, err
		},
	}}, true
}

// ParallelSort is the morsel-parallel form of Sort: each worker runs the
// pipeline over whole morsels and stable-sorts each morsel's output into a
// run, and the runs are K-way merged with ties broken by morsel order —
// which reproduces the serial operator's stable sort exactly. Limit parents
// consume the merged stream as usual.
type ParallelSort struct {
	parallelBreaker
}

// NewParallelSort builds a parallel sort over a partitionable source; build
// clones the pipeline between the scan and the sort. ok is false when src
// cannot provide at least two morsels.
func NewParallelSort(src Morseler, build PipelineFunc, keys []SortKey, workers int) (*ParallelSort, bool) {
	build, ok := splittable(src, build)
	if !ok {
		return nil, false
	}
	proto := build(src)
	return &ParallelSort{parallelBreaker{
		name:     "ParallelSort",
		src:      src,
		workers:  workers,
		schema:   proto.Schema(),
		absorbed: sharedState(proto),
		morsel: func(part Operator) (any, error) {
			var rows []Row
			err := drainMorsel(build(part), func(b *Batch) error {
				rows = b.AppendRows(rows)
				return nil
			})
			if err != nil {
				return nil, err
			}
			stableSortRows(rows, keys)
			return rows, nil
		},
		merge: func(next func() (any, bool, error)) (resultSet, error) {
			var runs [][]Row
			total := 0
			for {
				val, ok, err := next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				if run := val.([]Row); len(run) > 0 {
					runs = append(runs, run)
					total += len(run)
				}
			}
			return &rowResult{rows: mergeSortedRuns(runs, keys, total), ncols: len(proto.Schema())}, nil
		},
	}}, true
}

// runHeap is the K-way merge heap over sorted runs: the top is the run whose
// head row sorts first, ties broken by run (morsel) order so equal keys keep
// their input order — the stable-sort contract.
type runHeap struct {
	runs [][]Row
	pos  []int
	idx  []int // heap of run indices
	keys []SortKey
}

func (h *runHeap) Len() int { return len(h.idx) }
func (h *runHeap) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	cmp := compareRows(h.runs[a][h.pos[a]], h.runs[b][h.pos[b]], h.keys)
	if cmp != 0 {
		return cmp < 0
	}
	return a < b
}
func (h *runHeap) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *runHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *runHeap) Pop() any      { x := h.idx[len(h.idx)-1]; h.idx = h.idx[:len(h.idx)-1]; return x }

// mergeSortedRuns K-way merges sorted runs (runs ordered by morsel sequence)
// into one sorted row slice.
func mergeSortedRuns(runs [][]Row, keys []SortKey, total int) []Row {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	h := &runHeap{runs: runs, pos: make([]int, len(runs)), keys: keys}
	for i := range runs {
		h.idx = append(h.idx, i)
	}
	heap.Init(h)
	out := make([]Row, 0, total)
	for h.Len() > 0 {
		r := h.idx[0]
		out = append(out, h.runs[r][h.pos[r]])
		h.pos[r]++
		if h.pos[r] >= len(h.runs[r]) {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
	}
	return out
}
