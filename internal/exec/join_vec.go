// Vectorized hash join: the batch-at-a-time equi-join that retires the last
// row-at-a-time hot path. The build side is consumed as batches into a
// joinTable, whose keyIndex (the one the hash aggregates group by) numbers
// the build keys by their join-key bytes (appendJoinKey; NULL keys never
// match and are dropped up front), optionally morsel-parallel: workers claim
// build morsels through the shared atomic cursor, hash each morsel into a
// private partition, and the partitions merge in morsel order through the
// index's id mapping — so each key's chain holds build rows in exactly the
// serial drain order. The probe side then streams batch-at-a-time:
// compressed probe keys are looked up once per run or dictionary entry
// instead of once per row, matches buffer as (probe row, build row) pairs,
// and output batches materialize by gathering both sides column-wise — no
// per-row Row allocation, with the residual predicate applied through the
// vectorized kernels.
//
// Probe-side morsel pipelines share one build: clones created by
// plan.Parallelize hold the same joinBuildState, whose sync.Once-style latch
// lets whichever worker arrives first run the build while the rest wait.
// Matches emit per probe row in build insertion order, so a parallel plan's
// merged output is bit-identical to the serial join's.
package exec

import (
	"context"
	"fmt"
	"sync"

	"oldelephant/internal/expr"
	"oldelephant/internal/trace"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// joinTable is the built (right) side of the vectorized hash join: the
// matchable build rows stored column-major, and their keys numbered by a
// keyIndex over appendJoinKey's bytes. Rows whose key contains NULL are not
// stored at all: SQL equality can never select them. After the build
// finishes the table is immutable, so concurrent probe workers read it
// without locks (lookups take a caller-owned scratch buffer).
//
// A key's rows are an intrusive chain in insertion order: chains[id] holds
// key id's first and last row and next[i] the row after row i, so
// inserting costs no per-key allocation and a probe is one index lookup
// plus a chain walk.
type joinTable struct {
	keyIndex
	keyCols []int
	cols    [][]value.Value
	chains  [][2]int32
	next    []int32

	// Build scratch, reused batch to batch.
	keyRow []value.Value
	flats  [][]value.Value
}

// chainNone marks the end of a chain.
const chainNone int32 = -1

func newJoinTable(ncols int, keyCols []int) *joinTable {
	return &joinTable{
		keyIndex: newKeyIndex(),
		keyCols:  keyCols,
		cols:     make([][]value.Value, ncols),
		keyRow:   make([]value.Value, len(keyCols)),
		flats:    make([][]value.Value, ncols),
	}
}

func (t *joinTable) numRows() int { return len(t.next) }

// consumeBatch folds one build batch into the table.
func (t *joinTable) consumeBatch(b *Batch) {
	n := b.NumRows()
	for c := range b.Cols {
		t.flats[c] = b.Cols[c].Flat()
	}
	t.reserve(n)
	for i := 0; i < n; i++ {
		p := b.PhysIdx(i)
		for k, c := range t.keyCols {
			t.keyRow[k] = t.flats[c][p]
		}
		start := len(t.keys.Buf)
		var ok bool
		if t.keys.Buf, ok = appendJoinKey(t.keys.Buf, t.keyRow); !ok {
			t.keys.Buf = t.keys.Buf[:start]
			continue
		}
		id, added := t.intern(start)
		row := int32(len(t.next))
		t.next = append(t.next, chainNone)
		if added {
			if len(t.chains) == cap(t.chains) {
				t.chains = growCap(t.chains, max(len(t.chains), 64))
			}
			t.chains = append(t.chains, [2]int32{row, row})
		} else {
			t.next[t.chains[id][1]] = row
			t.chains[id][1] = row
		}
		for c, flat := range t.flats {
			t.cols[c] = append(t.cols[c], flat[p])
		}
	}
	clear(t.flats)
}

// reserve makes room for n more rows, doubling the columns and the links
// when they grow.
func (t *joinTable) reserve(n int) {
	if cap(t.next)-len(t.next) >= n {
		return
	}
	more := max(len(t.next), n)
	t.next = growCap(t.next, more)
	for c := range t.cols {
		t.cols[c] = growCap(t.cols[c], more)
	}
}

// mergeFrom appends another partition's rows and chains: the morsel-order
// combine of the parallel build. Per key, the other partition's chain is
// linked after this one's, so merging partitions in morsel order reproduces
// the serial insertion order exactly.
func (t *joinTable) mergeFrom(o *joinTable) {
	offset := int32(len(t.next))
	t.reserve(len(o.next))
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], o.cols[c]...)
	}
	for _, m := range o.next {
		if m != chainNone {
			m += offset
		}
		t.next = append(t.next, m)
	}
	known := int32(len(t.chains))
	for oid, id := range t.mergeKeys(&o.keyIndex) {
		head, tail := o.chains[oid][0]+offset, o.chains[oid][1]+offset
		if id >= known {
			t.chains = append(t.chains, [2]int32{head, tail})
			continue
		}
		t.next[t.chains[id][1]] = head
		t.chains[id][1] = tail
	}
}

// match appends to dst the rows whose key is Compare-equal, column by
// column, to key (one value per key column). buf is a caller-owned scratch
// buffer, returned possibly regrown, so concurrent probe workers can share
// the immutable table. Hash-equal is not yet equal: appendJoinKey gives two
// INTs past 2^53 that Compare tells apart one key, so each row of the chain
// is re-checked with value.Compare.
func (t *joinTable) match(key []value.Value, buf []byte, dst []int32) ([]int32, []byte) {
	buf, ok := appendJoinKey(buf[:0], key)
	if !ok {
		return dst, buf
	}
	id := t.lookup(buf)
	if id < 0 {
		return dst, buf
	}
	for m := t.chains[id][0]; m != chainNone; m = t.next[m] {
		if t.keyEquals(m, key) {
			dst = append(dst, m)
		}
	}
	return dst, buf
}

// keyEquals reports whether row m's key is Compare-equal to key.
func (t *joinTable) keyEquals(m int32, key []value.Value) bool {
	for k, c := range t.keyCols {
		if value.Compare(key[k], t.cols[c][m]) != 0 {
			return false
		}
	}
	return true
}

// joinBuildState owns the build side of a vectorized hash join. It is shared
// by every probe-side clone of the join (plan.Parallelize creates one clone
// per morsel pipeline), so the build runs exactly once per execution: the
// first caller of ensure builds under the mutex while later callers wait and
// receive the finished table. The build operator is passed in by the caller
// — every clone carries the owning join's (possibly plan-rewritten) Build
// field — rather than captured at construction, so a Parallelize rewrite of
// the build subtree is the operator that actually executes.
type joinBuildState struct {
	keys []int

	// Parallel-build configuration, set by plan.Parallelize through
	// ParallelForm before execution starts; absorbed is the shared state of
	// the operators the build pipeline absorbed (see SharedReleaser).
	src      Morseler
	pipe     PipelineFunc
	workers  int
	absorbed []SharedReleaser

	mu    sync.Mutex
	built bool
	table *joinTable
	err   error

	// ctx, when set by ApplyContext after the owning join's Open, is checked
	// inside the build drain (serial per batch, parallel per merged partition)
	// so cancellation is observed mid-build. reset clears it, so a cache-leased
	// plan drained without a context never sees a stale one. Setting it on the
	// shared state covers every probe-side clone at once.
	ctx context.Context
}

// reset forces the next ensure to rebuild (a re-Open of the owning join) and
// releases the table (Close of the owning join, or of the parallel operator
// that absorbed it), with the tables its parallel build's pipeline absorbed.
func (s *joinBuildState) reset() {
	s.mu.Lock()
	s.built, s.table, s.err = false, nil, nil
	s.ctx = nil
	s.mu.Unlock()
	releaseShared(s.absorbed)
}

func (s *joinBuildState) ensure(input Operator) (*joinTable, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.built {
		s.table, s.err = s.buildTable(input)
		s.built = true
	}
	return s.table, s.err
}

func (s *joinBuildState) buildTable(input Operator) (*joinTable, error) {
	ncols := len(input.Schema())
	if s.workers > 1 && s.src != nil {
		if parts, ok := s.src.Morsels(DefaultMorselRows, false); ok {
			return s.buildParallel(parts, ncols)
		}
	}
	t := newJoinTable(ncols, s.keys)
	err := drainMorsel(input, func(b *Batch) error {
		if err := ctxErr(s.ctx); err != nil {
			return err
		}
		t.consumeBatch(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// buildParallel hashes the build side morsel-parallel: idle workers claim the
// next build morsel, run their private clone of the build pipeline over it
// and hash its rows into a private partition, and the partitions merge in
// morsel order into one table.
func (s *joinBuildState) buildParallel(parts []Operator, ncols int) (*joinTable, error) {
	pipe := s.pipe
	if pipe == nil {
		pipe = identityPipeline
	}
	runner := newOrderedRunner("VectorizedHashJoin build", parts, s.workers, func(part Operator) (any, error) {
		pt := newJoinTable(ncols, s.keys)
		if err := drainMorsel(pipe(part), func(b *Batch) error {
			pt.consumeBatch(b)
			return nil
		}); err != nil {
			return nil, err
		}
		return pt, nil
	})
	defer runner.stop()
	var total *joinTable
	for {
		if err := ctxErr(s.ctx); err != nil {
			return nil, err
		}
		val, ok, err := runner.nextResult()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if total == nil {
			total = val.(*joinTable)
		} else {
			total.mergeFrom(val.(*joinTable))
		}
	}
	if total == nil {
		total = newJoinTable(ncols, s.keys)
	}
	return total, nil
}

// VectorizedHashJoin is the batch-native hash equi-join: Probe ++ Build rows
// for every key match, narrowed by an optional residual predicate. The
// planner uses it wherever the row engine would use HashJoin (which remains
// the row-at-a-time test oracle).
type VectorizedHashJoin struct {
	Probe     Operator
	Build     Operator
	LeftKeys  []int
	RightKeys []int
	Residual  expr.Expr

	schema  []ColumnInfo
	nleft   int
	shared  *joinBuildState
	isClone bool

	cur        *Batch
	pairsProbe []int32
	pairsBuild []int32
	pairPos    int
	keyRow     []value.Value
	keyBuf     []byte
	segMatches []int32
	dictArena  []int32
	dictSpans  [][2]int32
	rows       batchRowCursor
}

// NewVectorizedHashJoin builds a vectorized hash join on the given key
// ordinals (probe-side and build-side, pairwise).
func NewVectorizedHashJoin(probe, build Operator, leftKeys, rightKeys []int, residual expr.Expr) (*VectorizedHashJoin, error) {
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("exec: hash join requires matching, non-empty key lists")
	}
	return &VectorizedHashJoin{
		Probe: probe, Build: build, LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual,
		schema: concatSchemas(probe.Schema(), build.Schema()),
		nleft:  len(probe.Schema()),
		shared: &joinBuildState{keys: rightKeys},
		keyRow: make([]value.Value, len(leftKeys)),
	}, nil
}

// CloneOver implements MorselCloner: a copy of the join over a different probe
// input that shares the original's build state — the per-morsel clone
// plan.Parallelize creates so a probe-side pipeline can parallelize through
// the join against one shared hash table. The new probe must produce the
// original probe's schema.
func (j *VectorizedHashJoin) CloneOver(probe Operator) Operator {
	return &VectorizedHashJoin{
		Probe: probe, Build: j.Build, LeftKeys: j.LeftKeys, RightKeys: j.RightKeys, Residual: j.Residual,
		schema: j.schema, nleft: j.nleft, shared: j.shared, isClone: true,
		keyRow: make([]value.Value, len(j.LeftKeys)),
	}
}

// Child implements Parent: the probe side, then the build side — unless the
// build is morsel-parallel. A parallel build re-partitions the build side's
// scan instead of pulling Build, so there is no input to wrap or swap; like a
// Parallel* operator's absorbed pipeline it reports through span attributes.
func (j *VectorizedHashJoin) Child(i int) *Operator {
	if j.shared.src != nil {
		return slot(i, &j.Probe)
	}
	return slot(i, &j.Probe, &j.Build)
}

// ReplanInputs implements Replanner.
func (j *VectorizedHashJoin) ReplanInputs() bool { return true }

// SetContext implements ContextTaker. A parallel build's side is not a child
// slot (see Child), but joins nested in it share their build state with the
// per-morsel clones that run there, so the context is pushed on by hand.
func (j *VectorizedHashJoin) SetContext(ctx context.Context) {
	j.shared.mu.Lock()
	j.shared.ctx = ctx
	j.shared.mu.Unlock()
	if j.shared.src != nil {
		ApplyContext(j.Build, ctx)
	}
}

// Drained implements Breaker: the build side.
func (j *VectorizedHashJoin) Drained() *Operator { return &j.Build }

// ParallelForm implements Breaker: the join itself, configured to hash src's
// morsels into per-worker partitions through pipe (nil for none) — the scan
// at the bottom of its build side and the pipeline between the two. The build
// falls back to serial when src cannot provide at least two morsels.
func (j *VectorizedHashJoin) ParallelForm(src Morseler, pipe PipelineFunc, workers int) (Operator, bool) {
	j.shared.src, j.shared.pipe, j.shared.workers = src, pipe, workers
	if pipe != nil {
		j.shared.absorbed = sharedState(pipe(src))
	}
	return j, true
}

// ReleaseShared implements SharedReleaser: the built table the join's clones
// share.
func (j *VectorizedHashJoin) ReleaseShared() { j.shared.reset() }

// TraceAttrs implements SpanAnnotator.
func (j *VectorizedHashJoin) TraceAttrs(sp *trace.Span) {
	j.shared.mu.Lock()
	if j.shared.table != nil {
		sp.SetAttr("build_rows", int64(j.shared.table.numRows()))
		sp.SetAttr("build_keys", int64(j.shared.table.len()))
	}
	j.shared.mu.Unlock()
	if w := j.BuildParallelism(); w > 1 {
		sp.SetAttr("build_workers", int64(w))
	}
}

// BuildParallelism reports the configured build worker count (1 = serial).
func (j *VectorizedHashJoin) BuildParallelism() int {
	if j.shared.workers < 1 {
		return 1
	}
	return j.shared.workers
}

// Schema implements Operator.
func (j *VectorizedHashJoin) Schema() []ColumnInfo { return j.schema }

// Open implements Operator. The build itself is deferred to
// the first pull, so an opened-but-never-pulled join does no work; clones
// never reset the shared build (their Opens race during parallel execution).
func (j *VectorizedHashJoin) Open() error {
	if !j.isClone {
		j.shared.reset()
	}
	j.cur = nil
	j.pairsProbe, j.pairsBuild, j.pairPos = j.pairsProbe[:0], j.pairsBuild[:0], 0
	j.rows.reset()
	return j.Probe.Open()
}

// NextBatch implements Operator.
func (j *VectorizedHashJoin) NextBatch() (*Batch, bool, error) {
	table, err := j.shared.ensure(j.Build)
	if err != nil {
		return nil, false, err
	}
	for {
		if j.pairPos < len(j.pairsProbe) {
			out, err := j.emit(table)
			if err != nil {
				return nil, false, err
			}
			if out != nil {
				return out, true, nil
			}
			continue // residual rejected the whole window
		}
		b, ok, err := j.Probe.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		j.cur = b
		j.probeBatch(table, b)
	}
}

// probeBatch resolves one probe batch against the built table, buffering one
// (probe row, build row) pair per match in probe order. Key hashing is
// encoding-aware: a Const key vector hashes once for the whole batch, an RLE
// key once per clipped run, and a dictionary key once per dictionary entry —
// per-row work on a compressed probe is a bucket append, not a hash.
func (j *VectorizedHashJoin) probeBatch(t *joinTable, b *Batch) {
	j.pairsProbe, j.pairsBuild, j.pairPos = j.pairsProbe[:0], j.pairsBuild[:0], 0
	n := b.NumRows()
	if n == 0 || t.numRows() == 0 {
		return
	}
	key := j.keyRow
	if len(j.LeftKeys) == 1 {
		kv := b.Cols[j.LeftKeys[0]]
		switch {
		case kv.Encoding() == vector.Dict && len(kv.DictValues()) <= n:
			// Look each dictionary entry up once into its match list, then
			// map per-row codes to those lists. The lists live in one
			// join-owned arena (spans index it per code), reused across
			// batches so the hot probe loop does not allocate.
			dict, codes := kv.DictValues(), kv.Codes()
			arena, spans := j.dictArena[:0], j.dictSpans[:0]
			for _, dv := range dict {
				start := int32(len(arena))
				key[0] = dv
				arena, j.keyBuf = t.match(key, j.keyBuf, arena)
				spans = append(spans, [2]int32{start, int32(len(arena))})
			}
			j.dictArena, j.dictSpans = arena, spans
			for i := 0; i < n; i++ {
				p := b.PhysIdx(i)
				s := spans[codes[p]]
				j.appendPairs(int32(p), arena[s[0]:s[1]])
			}
			return
		case kv.Encoding() == vector.Flat:
			// Flat: one lookup per live row, matches appended in place.
			vals := kv.Flat()
			for i := 0; i < n; i++ {
				p := b.PhysIdx(i)
				key[0] = vals[p]
				from := len(j.pairsBuild)
				j.pairsBuild, j.keyBuf = t.match(key, j.keyBuf, j.pairsBuild)
				for range j.pairsBuild[from:] {
					j.pairsProbe = append(j.pairsProbe, int32(p))
				}
			}
			return
		}
	}
	// Segment walk: Const/RLE (and multi-column) keys look up once per
	// maximal constant segment of live rows; the match list is built once
	// per segment and shared by every row in it.
	seg := newSegmentIter(b, j.LeftKeys, nil)
	for i := 0; i < n; {
		p, reps := seg.next(i)
		for k, c := range j.LeftKeys {
			key[k] = b.Cols[c].Get(p)
		}
		j.segMatches, j.keyBuf = t.match(key, j.keyBuf, j.segMatches[:0])
		for r := 0; r < reps; r++ {
			j.appendPairs(int32(p+r), j.segMatches)
		}
		i += reps
	}
}

// appendPairs buffers one (probe row, build row) pair per match, in build
// insertion order.
func (j *VectorizedHashJoin) appendPairs(probe int32, matches []int32) {
	for _, m := range matches {
		j.pairsProbe = append(j.pairsProbe, probe)
		j.pairsBuild = append(j.pairsBuild, m)
	}
}

// emit materializes the next window of buffered pairs as an output batch:
// probe columns gather from the current probe batch (encoding-aware — a
// dictionary payload gathers codes, not values), build columns gather from
// the table's column store, and the residual predicate narrows the result
// through the vectorized kernels. A nil batch (no error) means the residual
// rejected every pair in the window.
func (j *VectorizedHashJoin) emit(t *joinTable) (*Batch, error) {
	end := j.pairPos + DefaultBatchSize
	if end > len(j.pairsProbe) {
		end = len(j.pairsProbe)
	}
	probeIdx := j.pairsProbe[j.pairPos:end]
	buildIdx := j.pairsBuild[j.pairPos:end]
	j.pairPos = end
	outN := len(probeIdx)
	cols := make([]*vector.Vector, len(j.schema))
	for c := 0; c < j.nleft; c++ {
		cols[c] = j.cur.Cols[c].Gather(probeIdx)
	}
	for c, src := range t.cols {
		out := make([]value.Value, outN)
		for k, i := range buildIdx {
			out[k] = src[i]
		}
		cols[j.nleft+c] = vector.NewFlat(out)
	}
	out := NewBatchFromVectors(cols)
	if j.Residual != nil {
		sel, err := expr.SelectVector(j.Residual, cols, nil, outN)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			return nil, nil
		}
		if len(sel) < outN {
			out.Sel = sel
		}
	}
	return out, nil
}

// Next implements Operator.
func (j *VectorizedHashJoin) Next() (Row, bool, error) {
	return j.rows.next(j.NextBatch)
}

// Close implements Operator. The build input is opened and
// closed inside the build itself; Close releases the probe side and — for the
// owning (non-clone) join — the built table, so a closed join does not pin
// the build side's memory for the rest of the query. Clones never release it:
// their Closes race while sibling morsel pipelines still probe. A join
// absorbed into a parallel pipeline is never closed itself; the parallel
// operator releases its table (ReleaseShared).
func (j *VectorizedHashJoin) Close() error {
	if !j.isClone {
		j.shared.reset()
	}
	j.cur = nil
	j.pairsProbe, j.pairsBuild = nil, nil
	return j.Probe.Close()
}
