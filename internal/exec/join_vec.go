// Vectorized hash join: the batch-at-a-time equi-join that retires the last
// row-at-a-time hot path. The build side is consumed as batches into a typed
// hash table (numeric keys hash as value.NumericSortKey words, no string
// encoding; NULL keys never match and are dropped up front), optionally
// morsel-parallel: workers claim build morsels through the shared atomic
// cursor, hash each morsel into a private partition, and the partitions merge
// in morsel order — so bucket lists hold build rows in exactly the serial
// drain order. The probe side then streams batch-at-a-time: compressed probe
// keys hash once per run or dictionary entry instead of once per row, matches
// buffer as (probe row, build row) pairs, and output batches materialize by
// gathering both sides column-wise — no per-row Row allocation, with the
// residual predicate applied through the vectorized kernels.
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

// joinTable is the built (right) side of the vectorized hash join: matchable
// build rows stored column-major plus typed-key buckets of row indices. A
// single numeric key uses the fast uint64 map; string and composite keys use
// the order-preserving encoded-key map. Rows whose key contains NULL are not
// stored at all — SQL equality can never select them. After the build
// finishes the table is immutable, so concurrent probe workers read it
// without locks (lookups take a caller-owned scratch buffer).
//
// Buckets are intrusive chains, not slices: the map value packs the bucket's
// (head, tail) row indices into one word and next[i] links same-key rows in
// insertion order. One word per key keeps the map compact (cache-resident far
// longer than 24-byte slice headers) and inserting costs no per-bucket
// allocation — the probe loop is a single map access plus a chain walk.
type joinTable struct {
	keys    []int
	cols    [][]value.Value
	fast    map[uint64]uint64
	generic map[string]uint64
	next    []int32
	fastOK  bool
	keyBuf  []byte // build-time scratch; never touched by lookups
}

// chainNone marks an empty bucket / end of chain.
const chainNone int32 = -1

func packChain(head, tail int32) uint64 {
	return uint64(uint32(head))<<32 | uint64(uint32(tail))
}

func chainHead(ht uint64) int32 { return int32(uint32(ht >> 32)) }
func chainTail(ht uint64) int32 { return int32(uint32(ht)) }

func newJoinTable(ncols int, keys []int) *joinTable {
	t := &joinTable{
		keys:    keys,
		cols:    make([][]value.Value, ncols),
		generic: make(map[string]uint64),
		fastOK:  len(keys) == 1,
	}
	if t.fastOK {
		t.fast = make(map[uint64]uint64)
	}
	return t
}

func (t *joinTable) numRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
}

// linkFast appends row idx to the fast bucket of key word w.
func (t *joinTable) linkFast(w uint64, idx int32) {
	t.next = append(t.next, chainNone)
	if ht, ok := t.fast[w]; ok {
		t.next[chainTail(ht)] = idx
		t.fast[w] = packChain(chainHead(ht), idx)
	} else {
		t.fast[w] = packChain(idx, idx)
	}
}

// linkGeneric appends row idx to the encoded-key bucket.
func (t *joinTable) linkGeneric(key []byte, idx int32) {
	t.next = append(t.next, chainNone)
	if ht, ok := t.generic[string(key)]; ok {
		t.next[chainTail(ht)] = idx
		t.generic[string(key)] = packChain(chainHead(ht), idx)
	} else {
		t.generic[string(key)] = packChain(idx, idx)
	}
}

// consumeBatch folds one build batch into the table. The common case — no
// selection vector and no NULL keys — bulk-appends whole columns and loops
// rows only to hash keys; rows with NULL keys (or batches with selections)
// take the per-row path.
func (t *joinTable) consumeBatch(b *Batch) {
	n := b.NumRows()
	if n == 0 {
		return
	}
	flats := make([][]value.Value, len(b.Cols))
	for c := range b.Cols {
		flats[c] = b.Cols[c].Flat()
	}
	if b.Sel == nil && t.fastOK && !hasNullOrString(flats[t.keys[0]]) {
		// All keys numeric: hash each row's key word, then copy columns in
		// one append per column instead of one per (row, column).
		base := int32(t.numRows())
		keys := flats[t.keys[0]]
		for i := 0; i < n; i++ {
			t.linkFast(value.NumericSortKey(keys[i]), base+int32(i))
		}
		for c := range t.cols {
			t.cols[c] = append(t.cols[c], flats[c]...)
		}
		return
	}
	for i := 0; i < n; i++ {
		t.insert(flats, b.PhysIdx(i))
	}
}

// hasNullOrString reports whether any value needs the generic key path.
func hasNullOrString(vals []value.Value) bool {
	for _, v := range vals {
		if v.Kind == value.KindNull || v.Kind == value.KindString {
			return true
		}
	}
	return false
}

// insert adds the row at physical position p of the flattened build columns,
// unless its key contains NULL.
func (t *joinTable) insert(flats [][]value.Value, p int) {
	idx := int32(t.numRows())
	if t.fastOK {
		v := flats[t.keys[0]][p]
		if w, ok := expr.NumericKeyWord(v); ok {
			t.linkFast(w, idx)
		} else if v.Kind == value.KindNull {
			return
		} else {
			t.keyBuf = value.AppendKeyValue(t.keyBuf[:0], v)
			t.linkGeneric(t.keyBuf, idx)
		}
	} else {
		t.keyBuf = t.keyBuf[:0]
		for _, k := range t.keys {
			v := flats[k][p]
			if v.Kind == value.KindNull {
				return
			}
			t.keyBuf = value.AppendKeyValue(t.keyBuf, v)
		}
		t.linkGeneric(t.keyBuf, idx)
	}
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], flats[c][p])
	}
}

// mergeFrom appends another partition's rows and buckets — the morsel-order
// combine of the parallel build. Per key, the other partition's chain is
// linked after this one's, so merging partitions in morsel order reproduces
// the serial insertion order exactly.
func (t *joinTable) mergeFrom(o *joinTable) {
	offset := int32(t.numRows())
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], o.cols[c]...)
	}
	for _, n := range o.next {
		if n == chainNone {
			t.next = append(t.next, chainNone)
		} else {
			t.next = append(t.next, n+offset)
		}
	}
	link := func(ht uint64, ok bool, oht uint64) uint64 {
		head, tail := chainHead(oht)+offset, chainTail(oht)+offset
		if ok {
			t.next[chainTail(ht)] = head
			return packChain(chainHead(ht), tail)
		}
		return packChain(head, tail)
	}
	for w, oht := range o.fast {
		ht, ok := t.fast[w]
		t.fast[w] = link(ht, ok, oht)
	}
	for k, oht := range o.generic {
		ht, ok := t.generic[k]
		t.generic[k] = link(ht, ok, oht)
	}
}

// Typed-key equality over-approximates SQL equality in one corner:
// value.NumericSortKey passes through float64, so two int64 keys beyond 2^53
// can share a key word even though value.Compare (exact for int-int pairs)
// orders them apart. Every hash-equal pair is therefore re-checked with
// value.Compare before it becomes a match — the same guard the planner's
// residual equality re-check used to provide, at one comparison per
// hash-equal pair instead of a predicate evaluation per output row.

// matchChain1 appends to dst the chain rows whose stored key is
// Compare-equal to the probe key v.
func (t *joinTable) matchChain1(head int32, v value.Value, dst []int32) []int32 {
	kc := t.cols[t.keys[0]]
	for m := head; m != chainNone; m = t.next[m] {
		if value.Compare(v, kc[m]) == 0 {
			dst = append(dst, m)
		}
	}
	return dst
}

// matchChainComposite appends to dst the chain rows whose stored composite
// key is Compare-equal, column by column, to the probe key at physical row p.
func (t *joinTable) matchChainComposite(head int32, b *Batch, p int, keys []int, dst []int32) []int32 {
	for m := head; m != chainNone; m = t.next[m] {
		equal := true
		for ki, k := range keys {
			if value.Compare(b.Cols[k].Get(p), t.cols[t.keys[ki]][m]) != 0 {
				equal = false
				break
			}
		}
		if equal {
			dst = append(dst, m)
		}
	}
	return dst
}

// lookup1 returns the bucket head for a single-column probe key (chainNone
// for no match). buf is a caller-owned scratch buffer (returned possibly
// regrown) so concurrent probe workers can share the immutable table.
func (t *joinTable) lookup1(v value.Value, buf []byte) (int32, []byte) {
	if w, ok := expr.NumericKeyWord(v); ok {
		if ht, ok := t.fast[w]; ok {
			return chainHead(ht), buf
		}
		return chainNone, buf
	}
	if v.Kind == value.KindNull {
		return chainNone, buf
	}
	buf = value.AppendKeyValue(buf[:0], v)
	if ht, ok := t.generic[string(buf)]; ok {
		return chainHead(ht), buf
	}
	return chainNone, buf
}

// lookupComposite returns the bucket head for a multi-column probe key read
// at physical row p of the batch.
func (t *joinTable) lookupComposite(b *Batch, p int, keys []int, buf []byte) (int32, []byte) {
	buf = buf[:0]
	for _, k := range keys {
		v := b.Cols[k].Get(p)
		if v.Kind == value.KindNull {
			return chainNone, buf
		}
		buf = value.AppendKeyValue(buf, v)
	}
	if ht, ok := t.generic[string(buf)]; ok {
		return chainHead(ht), buf
	}
	return chainNone, buf
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
// for every typed-key match, narrowed by an optional residual predicate. The
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
	if len(j.LeftKeys) == 1 {
		kv := b.Cols[j.LeftKeys[0]]
		kc := t.cols[t.keys[0]]
		switch {
		case kv.Encoding() == vector.Dict && len(kv.DictValues()) <= n:
			// Hash each dictionary entry once into its Compare-checked match
			// list, then map per-row codes to those lists. The lists live in
			// one join-owned arena (spans index it per code), reused across
			// batches so the hot probe loop does not allocate.
			dict, codes := kv.DictValues(), kv.Codes()
			arena, spans := j.dictArena[:0], j.dictSpans[:0]
			for _, dv := range dict {
				start := int32(len(arena))
				var head int32
				head, j.keyBuf = t.lookup1(dv, j.keyBuf)
				if head != chainNone {
					arena = t.matchChain1(head, dv, arena)
				}
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
			// Flat fast path: one typed lookup per live row, chain walked with
			// the Compare guard inline.
			vals := kv.Flat()
			for i := 0; i < n; i++ {
				p := b.PhysIdx(i)
				var head int32
				head, j.keyBuf = t.lookup1(vals[p], j.keyBuf)
				for m := head; m != chainNone; m = t.next[m] {
					if value.Compare(vals[p], kc[m]) == 0 {
						j.pairsProbe = append(j.pairsProbe, int32(p))
						j.pairsBuild = append(j.pairsBuild, m)
					}
				}
			}
			return
		}
	}
	// Segment walk: Const/RLE (and multi-column) keys hash once per maximal
	// constant segment of live rows; the Compare-checked match list is built
	// once per segment and shared by every row in it.
	seg := newSegmentIter(b, j.LeftKeys, nil)
	for i := 0; i < n; {
		p, reps := seg.next(i)
		var head int32
		if len(j.LeftKeys) == 1 {
			head, j.keyBuf = t.lookup1(b.Cols[j.LeftKeys[0]].Get(p), j.keyBuf)
		} else {
			head, j.keyBuf = t.lookupComposite(b, p, j.LeftKeys, j.keyBuf)
		}
		if head != chainNone {
			j.segMatches = j.segMatches[:0]
			if len(j.LeftKeys) == 1 {
				j.segMatches = t.matchChain1(head, b.Cols[j.LeftKeys[0]].Get(p), j.segMatches)
			} else {
				j.segMatches = t.matchChainComposite(head, b, p, j.LeftKeys, j.segMatches)
			}
			for r := 0; r < reps; r++ {
				j.appendPairs(int32(p+r), j.segMatches)
			}
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
