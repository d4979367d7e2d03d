package exec

import (
	"context"
	"fmt"
	"math"
	"slices"

	"oldelephant/internal/catalog"
	"oldelephant/internal/expr"
	"oldelephant/internal/trace"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// NestedLoopJoin joins two inputs by materializing the right side and, for
// every left row, scanning the materialized rows and applying the join
// predicate (which sees the concatenated left++right row). The
// materialization is deferred to the first pull, so it runs under the
// context ApplyContext pushed after Open.
//
// Like every row join it declares no Replanner: the row joins are the serial
// reference, and an inner side may be re-opened per outer row, which a worker
// pool must not be — so plan.Parallelize leaves their subtrees as planned.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        expr.Expr

	rightRows []Row
	built     bool
	ctx       context.Context // see Sort.ctx
	leftRow   Row
	leftOK    bool
	rightPos  int
	schema    []ColumnInfo
}

// NewNestedLoopJoin builds a nested-loop join.
func NewNestedLoopJoin(left, right Operator, pred expr.Expr) *NestedLoopJoin {
	return &NestedLoopJoin{Left: left, Right: right, Pred: pred,
		schema: concatSchemas(left.Schema(), right.Schema())}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() []ColumnInfo { return j.schema }

// Open implements Operator.
func (j *NestedLoopJoin) Open() error {
	j.rightRows, j.built, j.ctx = nil, false, nil
	j.leftOK = false
	j.rightPos = 0
	return j.Left.Open()
}

// Child implements Parent.
func (j *NestedLoopJoin) Child(i int) *Operator { return slot(i, &j.Left, &j.Right) }

// SetContext implements ContextTaker.
func (j *NestedLoopJoin) SetContext(ctx context.Context) { j.ctx = ctx }

// Next implements Operator.
func (j *NestedLoopJoin) Next() (Row, bool, error) {
	if !j.built {
		rows, err := Drain(j.ctx, j.Right)
		if err != nil {
			return nil, false, err
		}
		j.rightRows, j.built = rows, true
	}
	for {
		if !j.leftOK {
			row, ok, err := j.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.leftRow = row
			j.leftOK = true
			j.rightPos = 0
		}
		for j.rightPos < len(j.rightRows) {
			right := j.rightRows[j.rightPos]
			j.rightPos++
			out := concatRows(j.leftRow, right)
			pass, err := expr.EvalBool(j.Pred, out)
			if err != nil {
				return nil, false, err
			}
			if pass {
				return out, true, nil
			}
		}
		j.leftOK = false
	}
}

// NextBatch implements Operator.
func (j *NestedLoopJoin) NextBatch() (*Batch, bool, error) {
	return nextBatchFromRows(j, DefaultBatchSize)
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.rightRows, j.built = nil, false
	return j.Left.Close()
}

// HashJoin performs an equi-join: the right (build) side is hashed on its key
// columns, then the left (probe) side streams through. An optional residual
// predicate is applied to the concatenated row. It is the row-at-a-time test
// oracle for VectorizedHashJoin: it shares only the join-key bytes
// (appendJoinKey), keyed in a Go map rather than VectorizedHashJoin's
// keyIndex, and rows whose key contains NULL never match (SQL equality
// semantics).
type HashJoin struct {
	Left, Right Operator
	LeftKeys    []int
	RightKeys   []int
	Residual    expr.Expr

	table    map[string][]Row
	built    bool
	ctx      context.Context // see Sort.ctx
	key      []value.Value
	keyBuf   []byte
	leftRow  Row
	matches  []Row
	matchPos int
	schema   []ColumnInfo
}

// NewHashJoin builds a hash join on the given key ordinals.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int, residual expr.Expr) (*HashJoin, error) {
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("exec: hash join requires matching, non-empty key lists")
	}
	return &HashJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys,
		Residual: residual, key: make([]value.Value, len(leftKeys)),
		schema: concatSchemas(left.Schema(), right.Schema())}, nil
}

// Schema implements Operator.
func (j *HashJoin) Schema() []ColumnInfo { return j.schema }

// Open implements Operator. The build is deferred to the first pull, so it
// runs under the context ApplyContext pushed after Open.
func (j *HashJoin) Open() error {
	j.table, j.built, j.ctx = nil, false, nil
	j.matches = nil
	j.matchPos = 0
	return j.Left.Open()
}

// Child implements Parent.
func (j *HashJoin) Child(i int) *Operator { return slot(i, &j.Left, &j.Right) }

// SetContext implements ContextTaker.
func (j *HashJoin) SetContext(ctx context.Context) { j.ctx = ctx }

// build drains the right side into the hash table.
func (j *HashJoin) build() error {
	rows, err := Drain(j.ctx, j.Right)
	if err != nil {
		return err
	}
	j.table = make(map[string][]Row)
	for _, r := range rows {
		if j.keyOf(r, j.RightKeys) {
			j.table[string(j.keyBuf)] = append(j.table[string(j.keyBuf)], r)
		}
	}
	j.built = true
	return nil
}

// keyOf encodes row's join key on columns keys into keyBuf; false for a key
// with a NULL, which matches nothing.
func (j *HashJoin) keyOf(row Row, keys []int) bool {
	for i, k := range keys {
		j.key[i] = row[k]
	}
	var ok bool
	j.keyBuf, ok = appendJoinKey(j.keyBuf[:0], j.key)
	return ok
}

// keysCompareEqual re-checks a hash-equal pair with value.Compare: two INTs
// past 2^53 share a join key (appendJoinKey) even though SQL '=' (exact for
// int-int pairs) separates them.
func keysCompareEqual(left, right Row, leftKeys, rightKeys []int) bool {
	for i, lk := range leftKeys {
		if value.Compare(left[lk], right[rightKeys[i]]) != 0 {
			return false
		}
	}
	return true
}

// Next implements Operator.
func (j *HashJoin) Next() (Row, bool, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, false, err
		}
	}
	for {
		for j.matchPos < len(j.matches) {
			right := j.matches[j.matchPos]
			j.matchPos++
			if !keysCompareEqual(j.leftRow, right, j.LeftKeys, j.RightKeys) {
				continue
			}
			out := concatRows(j.leftRow, right)
			pass, err := expr.EvalBool(j.Residual, out)
			if err != nil {
				return nil, false, err
			}
			if pass {
				return out, true, nil
			}
		}
		row, ok, err := j.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		j.leftRow, j.matches, j.matchPos = row, nil, 0
		if j.keyOf(row, j.LeftKeys) {
			j.matches = j.table[string(j.keyBuf)]
		}
	}
}

// NextBatch implements Operator.
func (j *HashJoin) NextBatch() (*Batch, bool, error) { return nextBatchFromRows(j, DefaultBatchSize) }

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table, j.built = nil, false
	return j.Left.Close()
}

// MergeJoin equi-joins two inputs that are already sorted ascending on their
// key columns. Right rows with equal keys are buffered as a group so
// many-to-many matches (and repeated left keys) are produced correctly.
type MergeJoin struct {
	Left, Right Operator
	LeftKeys    []int
	RightKeys   []int
	Residual    expr.Expr

	schema   []ColumnInfo
	leftRow  Row
	leftOK   bool
	rightRow Row
	rightOK  bool
	group    []Row
	groupKey Row
	groupPos int
}

// NewMergeJoin builds a merge join; both inputs must be sorted ascending on
// their respective key columns.
func NewMergeJoin(left, right Operator, leftKeys, rightKeys []int, residual expr.Expr) (*MergeJoin, error) {
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("exec: merge join requires matching, non-empty key lists")
	}
	return &MergeJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys,
		Residual: residual, schema: concatSchemas(left.Schema(), right.Schema())}, nil
}

// Schema implements Operator.
func (j *MergeJoin) Schema() []ColumnInfo { return j.schema }

// Open implements Operator.
func (j *MergeJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	j.group, j.groupKey = nil, nil
	j.groupPos = 0
	var err error
	j.leftRow, j.leftOK, err = j.Left.Next()
	if err != nil {
		return err
	}
	j.rightRow, j.rightOK, err = j.Right.Next()
	return err
}

// Child implements Parent.
func (j *MergeJoin) Child(i int) *Operator { return slot(i, &j.Left, &j.Right) }

func keyOf(row Row, keys []int) Row {
	out := make(Row, len(keys))
	for i, k := range keys {
		out[i] = row[k]
	}
	return out
}

// keyHasNull reports whether any key column of the row is NULL. SQL equality
// never holds for NULL, so equi-join operators skip such rows instead of
// letting value.Compare (which orders NULL == NULL) pair them up.
func keyHasNull(row Row, keys []int) bool {
	for _, k := range keys {
		if row[k].IsNull() {
			return true
		}
	}
	return false
}

func compareKeys(a, b Row) int {
	for i := range a {
		if cmp := value.Compare(a[i], b[i]); cmp != 0 {
			return cmp
		}
	}
	return 0
}

func (j *MergeJoin) advanceLeft() error {
	var err error
	j.leftRow, j.leftOK, err = j.Left.Next()
	j.groupPos = 0
	return err
}

func (j *MergeJoin) advanceRight() error {
	var err error
	j.rightRow, j.rightOK, err = j.Right.Next()
	return err
}

// Next implements Operator.
func (j *MergeJoin) Next() (Row, bool, error) {
	for {
		if !j.leftOK {
			return nil, false, nil
		}
		// NULL keys never satisfy the equi-join; skip the left row outright
		// (right rows with NULL keys sort before every non-NULL key and are
		// passed over by the advance loop below).
		if keyHasNull(j.leftRow, j.LeftKeys) {
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
			continue
		}
		leftKey := keyOf(j.leftRow, j.LeftKeys)
		// Case 1: the buffered group matches the current left key.
		if j.groupKey != nil && compareKeys(leftKey, j.groupKey) == 0 {
			for j.groupPos < len(j.group) {
				right := j.group[j.groupPos]
				j.groupPos++
				out := concatRows(j.leftRow, right)
				pass, err := expr.EvalBool(j.Residual, out)
				if err != nil {
					return nil, false, err
				}
				if pass {
					return out, true, nil
				}
			}
			// Group exhausted for this left row: move to the next left row
			// (which may share the same key and replay the group).
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
			continue
		}
		// Case 2: the group is behind the left key (or absent): build the next
		// group by advancing the right side.
		for j.rightOK && compareKeys(keyOf(j.rightRow, j.RightKeys), leftKey) < 0 {
			if err := j.advanceRight(); err != nil {
				return nil, false, err
			}
		}
		if !j.rightOK {
			// No further right rows can match this or any later left key.
			return nil, false, nil
		}
		rightKey := keyOf(j.rightRow, j.RightKeys)
		if compareKeys(rightKey, leftKey) > 0 {
			// No right rows for this left key; advance left.
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
			continue
		}
		// rightKey == leftKey: buffer the whole group of equal right keys.
		j.group = nil
		j.groupKey = append(Row(nil), rightKey...)
		for j.rightOK && compareKeys(keyOf(j.rightRow, j.RightKeys), j.groupKey) == 0 {
			j.group = append(j.group, j.rightRow)
			if err := j.advanceRight(); err != nil {
				return nil, false, err
			}
		}
		j.groupPos = 0
	}
}

// NextBatch implements Operator.
func (j *MergeJoin) NextBatch() (*Batch, bool, error) { return nextBatchFromRows(j, DefaultBatchSize) }

// Close implements Operator.
func (j *MergeJoin) Close() error {
	errL := j.Left.Close()
	errR := j.Right.Close()
	if errL != nil {
		return errL
	}
	return errR
}

// InnerSeekSpec describes the inner side of an index-nested-loop join: which
// table/index to probe and how to derive the probe range from the outer row.
// This is the operator behind the paper's band joins over c-tables, where the
// inner range [T1.f BETWEEN T0.f AND T0.f+T0.c-1] depends on the outer tuple.
type InnerSeekSpec struct {
	Table *catalog.Table
	// Index selects a secondary index to probe; nil probes the clustered index.
	Index *catalog.Index
	// LoExprs/HiExprs are evaluated over the OUTER row to produce the prefix
	// bounds of the probe. nil slices mean an open bound.
	LoExprs []expr.Expr
	HiExprs []expr.Expr
	LoIncl  bool
	HiIncl  bool
	// Cols are the base-table column ordinals the join produces for the inner side.
	Cols []int
	// Band, over the output row, holds the join conjuncts the bounds restate
	// exactly when every bound value is of the probed key's kind; the join
	// checks it only on the matches of outer rows whose bounds are not.
	Band expr.Expr
}

// IndexNestedLoopJoin probes an index range for every outer row. The output
// row is outer ++ inner(Cols); Residual (over the output row) filters matches.
//
// One inner scan serves every range. It moves from range to range with
// Reseek, so a range forward of the last begins in the leaf where the last
// stopped, and a range from the tree's smallest keys (at or below the
// leftmost leaf's fence) at that leaf; only other ranges descend from the
// root. A c-table band join probes in f order, so at selectivity 1 it reads
// no internal page, and at lower selectivity it descends once. Open resets
// the scan: an execution begins from the root.
//
// Next is the row reference: one seek per outer row. NextBatch runs the same
// seeks an outer batch at a time, with the bounds evaluated as vectors, and
// coalesces chained ranges: consecutive outer rows whose single inclusive
// integer bounds ascend over an INT or DATE key, each lo exactly the previous
// hi + 1, share one seek over [first lo, last hi]. Every c-table band
// (f BETWEEN f' AND f'+c'-1) and every dense-equality chain has that shape.
// A coalesced seek reads the pages the per-row seeks read, in the same order:
// each per-row seek of a chain after the first begins in the leaf where the
// one before it stopped, which it fetches again as the most recent page
// fetched — a hit that leaves the buffer pool's LRU order as it was — and
// walks on as the coalesced seek does. As the ranges are disjoint and leave no
// integer out, each inner row belongs to exactly one outer row, which a
// forward merge on the key finds. Inner vectors pass through as the scan
// filled them; each outer column becomes runs of its rows' match counts:
// Const for one outer row, RLE for few, gathered Flat for many.
type IndexNestedLoopJoin struct {
	Outer    Operator
	Inner    InnerSeekSpec
	Residual expr.Expr

	schema []ColumnInfo
	// inner is the one inner scan, built with the join and re-bound to each
	// range; innerOpen says it is mid-probe. It produces Inner.Cols, then the
	// probed index's leading key column when Cols lack it; keyPos is where
	// the key is. coalesce says chained ranges may share a seek.
	inner     boundScan
	innerOpen bool
	ninner    int
	keyPos    int
	keyKind   value.Kind
	coalesce  bool
	// residual filters the open range's matches: Residual, and Inner.Band
	// as well (checked) unless every bound of the range is of keyKind.
	residual, checked expr.Expr
	// ctx is checked once per outer batch, or per DefaultBatchSize outer rows
	// on the row path, so a residual that rejects every match cannot keep a
	// cancelled query running through the whole outer input.
	ctx context.Context

	// Row path: the current outer row and the outer rows pulled so far.
	outerRow Row
	pulled   int

	// Batch path: the outer batch being joined, its live rows with non-NULL
	// bounds (probes) and the bound values by expression and physical row.
	// probes[gFrom:gTo] is the group the open inner range covers, at the
	// probe the merge has reached. runRows/runEnds are the current output
	// batch's runs: each run's outer row and exclusive end.
	outer          *Batch
	probes         []int
	lo, hi         [][]value.Value
	gFrom, gTo, at int
	runRows        []int
	runEnds        []int

	// EXPLAIN ANALYZE counters (TraceAttrs), reset by Open.
	outerRows, innerRows int64
	counts               seekCounts
}

// boundScan is a leaf access path that moves from key range to key range:
// TableScan and IndexSeek.
type boundScan interface {
	Operator
	// Reseek binds the scan to [lo, hi] and opens it there, from where its
	// last range stopped when it is open (catalog.Cursor.Reseek); it reports
	// how positioning read the tree. Close makes the next Reseek begin
	// afresh.
	Reseek(lo, hi []value.Value) (catalog.SeekStart, error)
}

// NewIndexNestedLoopJoin builds an index-nested-loop (band) join.
func NewIndexNestedLoopJoin(outer Operator, inner InnerSeekSpec, residual expr.Expr) (*IndexNestedLoopJoin, error) {
	t := inner.Table
	if t == nil {
		return nil, fmt.Errorf("exec: inner seek requires a table")
	}
	ix := inner.Index
	if ix == nil {
		if !t.IsClustered() {
			return nil, fmt.Errorf("exec: table %q has no clustered key", t.Name)
		}
		ix = t.Clustered
	}
	cols := inner.Cols
	if cols == nil {
		cols = allOrdinals(len(t.Columns))
	}
	lead := ix.KeyColumns[0]
	scanCols, keyPos := cols, slices.Index(cols, lead)
	if keyPos < 0 {
		scanCols, keyPos = append(slices.Clip(cols), lead), len(cols)
	}
	var scan boundScan
	var err error
	if inner.Index != nil {
		scan, err = NewIndexSeek(inner.Index, nil, nil, inner.LoIncl, inner.HiIncl, scanCols)
	} else {
		scan, err = NewClusteredSeek(t, nil, nil, inner.LoIncl, inner.HiIncl, scanCols)
	}
	if err != nil {
		return nil, err
	}
	// An uncovered index seek reads base rows between its leaf loads, so a
	// per-row seek's fetch of the leaf it begins in is no longer the most
	// recent page fetched and reorders the LRU: it does not coalesce.
	kind := t.Columns[lead].Kind
	return &IndexNestedLoopJoin{
		Outer: outer, Inner: inner, Residual: residual, inner: scan,
		schema: concatSchemas(outer.Schema(), projectedSchema(t, cols)),
		ninner: len(cols), keyPos: keyPos, keyKind: kind, checked: expr.And(residual, inner.Band),
		coalesce: (kind == value.KindInt || kind == value.KindDate) && inner.LoIncl && inner.HiIncl &&
			len(inner.LoExprs) == 1 && len(inner.HiExprs) == 1 && (inner.Index == nil || inner.Index.Covers(scanCols)),
	}, nil
}

// Schema implements Operator.
func (j *IndexNestedLoopJoin) Schema() []ColumnInfo { return j.schema }

// Open implements Operator.
func (j *IndexNestedLoopJoin) Open() error {
	j.inner.Close() // the first range descends: the tree may have changed since the last execution
	j.outerRow, j.pulled, j.innerOpen, j.ctx = nil, 0, false, nil
	j.outer, j.probes, j.gFrom, j.gTo = nil, j.probes[:0], 0, 0
	j.outerRows, j.innerRows, j.counts = 0, 0, seekCounts{}
	return j.Outer.Open()
}

// Child implements Parent. The inner scan is not a child slot: it is part of
// the join, re-bound and re-opened per range.
func (j *IndexNestedLoopJoin) Child(i int) *Operator { return slot(i, &j.Outer) }

// SetContext implements ContextTaker.
func (j *IndexNestedLoopJoin) SetContext(ctx context.Context) { j.ctx = ctx }

// TraceAttrs implements SpanAnnotator: outer rows joined, inner range seeks,
// the seeks among them positioned by a descent from the root and those from
// the leaf the inner tree's model predicts, the leaves those walked past
// (seekCounts), and inner rows read, before the residual.
func (j *IndexNestedLoopJoin) TraceAttrs(sp *trace.Span) {
	sp.SetAttr("outer_rows", j.outerRows)
	j.counts.attrs(sp)
	sp.SetAttr("inner_rows", j.innerRows)
}

// evalBounds computes a bound prefix from expressions over the outer row.
func evalBounds(exprs []expr.Expr, outer Row) ([]value.Value, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(exprs))
	for i, e := range exprs {
		v, err := e.Eval(outer)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// hasNull reports whether a bound has a NULL value: a NULL bound can never
// satisfy the join's range predicate, but a raw seek would treat it as the
// smallest key and return spurious rows, so its outer row is skipped.
func hasNull(bound []value.Value) bool {
	return slices.ContainsFunc(bound, value.Value.IsNull)
}

// ofKeyKind reports whether every value of a bound is of the probed key's
// kind, so the seek restates it exactly (value.CoerceKeyBound's same-kind
// path).
func (j *IndexNestedLoopJoin) ofKeyKind(bound []value.Value) bool {
	for _, v := range bound {
		if v.Kind != j.keyKind {
			return false
		}
	}
	return true
}

// seek moves the inner scan to one range, and picks the residual for its
// matches: Inner.Band is checked unless both bounds are of the key's kind.
func (j *IndexNestedLoopJoin) seek(lo, hi []value.Value) error {
	j.residual = j.Residual
	if j.Inner.Band != nil && (!j.ofKeyKind(lo) || !j.ofKeyKind(hi)) {
		j.residual = j.checked
	}
	st, err := j.inner.Reseek(lo, hi)
	if err != nil {
		return err
	}
	j.innerOpen = true
	j.counts.add(st)
	return nil
}

// Next implements Operator.
func (j *IndexNestedLoopJoin) Next() (Row, bool, error) {
	for {
		if !j.innerOpen {
			if j.pulled++; j.pulled%DefaultBatchSize == 0 {
				if err := ctxErr(j.ctx); err != nil {
					return nil, false, err
				}
			}
			row, ok, err := j.Outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.outerRow = row
			j.outerRows++
			lo, err := evalBounds(j.Inner.LoExprs, row)
			if err != nil {
				return nil, false, err
			}
			hi, err := evalBounds(j.Inner.HiExprs, row)
			if err != nil {
				return nil, false, err
			}
			if hasNull(lo) || hasNull(hi) {
				continue // this outer row cannot match
			}
			if err := j.seek(lo, hi); err != nil {
				return nil, false, err
			}
		}
		for {
			inner, ok, err := j.inner.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.innerOpen = false // the scan stays where the range stopped
				break
			}
			j.innerRows++
			out := concatRows(j.outerRow, inner[:j.ninner])
			pass, err := expr.EvalBool(j.residual, out)
			if err != nil {
				return nil, false, err
			}
			if pass {
				return out, true, nil
			}
		}
	}
}

// NextBatch implements Operator.
func (j *IndexNestedLoopJoin) NextBatch() (*Batch, bool, error) {
	for {
		if !j.innerOpen {
			if j.gTo == len(j.probes) {
				if err := j.pullOuter(); err != nil || j.outer == nil {
					return nil, false, err
				}
				continue
			}
			if err := j.openGroup(); err != nil {
				return nil, false, err
			}
		}
		in, ok, err := j.inner.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.innerOpen = false // the scan stays where the range stopped
			continue
		}
		out, err := j.emit(in)
		if err != nil {
			return nil, false, err
		}
		if out != nil {
			return out, true, nil
		}
	}
}

// pullOuter reads the next outer batch, evaluates its bounds as vectors and
// lists its probes; j.outer is nil once the outer input is exhausted.
func (j *IndexNestedLoopJoin) pullOuter() error {
	j.outer = nil
	if err := ctxErr(j.ctx); err != nil {
		return err
	}
	b, ok, err := j.Outer.NextBatch()
	if err != nil || !ok {
		return err
	}
	if j.lo, err = evalBoundVectors(j.Inner.LoExprs, b, j.lo); err != nil {
		return err
	}
	if j.hi, err = evalBoundVectors(j.Inner.HiExprs, b, j.hi); err != nil {
		return err
	}
	j.probes = j.probes[:0]
	for i := range b.NumRows() {
		if p := b.PhysIdx(i); !nullAt(j.lo, p) && !nullAt(j.hi, p) {
			j.probes = append(j.probes, p)
		}
	}
	j.outer, j.gFrom, j.gTo = b, 0, 0
	j.outerRows += int64(b.NumRows())
	return nil
}

// evalBoundVectors evaluates bound expressions over an outer batch into dst:
// one per-row value slice per expression, read at live rows only.
func evalBoundVectors(exprs []expr.Expr, b *Batch, dst [][]value.Value) ([][]value.Value, error) {
	dst = dst[:0]
	for _, e := range exprs {
		v, err := expr.EvalVector(e, b.Cols, b.Sel, b.physRows())
		if err != nil {
			return nil, err
		}
		dst = append(dst, v.Flat())
	}
	return dst, nil
}

// nullAt reports whether the bound at physical row p has a NULL value.
func nullAt(bound [][]value.Value, p int) bool {
	for _, vals := range bound {
		if vals[p].IsNull() {
			return true
		}
	}
	return false
}

// boundAt is the bound prefix at physical row p (nil for an open bound).
func boundAt(bound [][]value.Value, p int) []value.Value {
	if len(bound) == 0 {
		return nil
	}
	out := make([]value.Value, len(bound))
	for i, vals := range bound {
		out[i] = vals[p]
	}
	return out
}

// openGroup seeks the next group of probes: one outer row, or a chain of
// outer rows whose ranges coalesce.
func (j *IndexNestedLoopJoin) openGroup() error {
	j.gFrom, j.at = j.gTo, j.gTo
	j.gTo++
	for j.gTo < len(j.probes) && j.chains(j.probes[j.gTo-1], j.probes[j.gTo]) {
		j.gTo++
	}
	return j.seek(boundAt(j.lo, j.probes[j.gFrom]), boundAt(j.hi, j.probes[j.gTo-1]))
}

// chains reports whether outer row b's range continues outer row a's: both
// non-empty integer ranges with bounds of one kind, and b's lo exactly a's
// hi + 1. Overlapping, descending or gapped ranges, non-integer or mixed-kind
// bounds and repeated equality keys do not chain; those rows get a seek of
// their own. A chain's bounds thus share a kind, and seek's check of the
// group's first lo and last hi covers every row of it.
func (j *IndexNestedLoopJoin) chains(a, b int) bool {
	if !j.coalesce {
		return false
	}
	loA, hiA, loB, hiB := j.lo[0][a], j.hi[0][a], j.lo[0][b], j.hi[0][b]
	return integral(loA) && hiA.Kind == loA.Kind && loB.Kind == loA.Kind && hiB.Kind == loA.Kind &&
		loA.I <= hiA.I && loB.I <= hiB.I && hiA.I < math.MaxInt64 && loB.I == hiA.I+1
}

// integral reports whether a bound is an integer the seek uses as it is.
func integral(v value.Value) bool { return v.Kind == value.KindInt || v.Kind == value.KindDate }

// emit turns one inner batch of the open group into an output batch: the
// inner vectors as filled, the outer columns as runs of the rows each outer
// row matched, narrowed by the residual. A nil batch (no error) means the
// residual rejected every row.
func (j *IndexNestedLoopJoin) emit(in *Batch) (*Batch, error) {
	n := in.NumRows() // access paths emit no selection
	j.runRows, j.runEnds = j.runRows[:0], j.runEnds[:0]
	if j.gTo-j.gFrom == 1 {
		j.runRows = append(j.runRows, j.probes[j.at])
	} else {
		// Forward merge on the integer key: a key belongs to the first outer
		// row of the group whose hi is not below it.
		keys, hi := in.Cols[j.keyPos].Flat(), j.hi[0]
		for r, k := range keys {
			for j.at < j.gTo-1 && k.I > hi[j.probes[j.at]].I {
				j.at++
			}
			if p := j.probes[j.at]; r == 0 || p != j.runRows[len(j.runRows)-1] {
				if r > 0 {
					j.runEnds = append(j.runEnds, r)
				}
				j.runRows = append(j.runRows, p)
			}
		}
	}
	j.runEnds = append(j.runEnds, n)
	j.innerRows += int64(n)

	nouter := len(j.schema) - j.ninner
	cols := make([]*vector.Vector, len(j.schema))
	runs := len(j.runRows)
	switch {
	case runs == 1:
		for c := range nouter {
			cols[c] = vector.NewConst(j.outer.Cols[c].Get(j.runRows[0]), n)
		}
	case 2*runs <= n:
		ends := slices.Clone(j.runEnds)
		for c := range nouter {
			vals := make([]value.Value, runs)
			for r, p := range j.runRows {
				vals[r] = j.outer.Cols[c].Get(p)
			}
			cols[c] = vector.NewRLE(vals, ends)
		}
	default:
		idx := make([]int32, 0, n)
		start := 0
		for r, p := range j.runRows {
			for ; start < j.runEnds[r]; start++ {
				idx = append(idx, int32(p))
			}
		}
		for c := range nouter {
			cols[c] = j.outer.Cols[c].Gather(idx)
		}
	}
	copy(cols[nouter:], in.Cols[:j.ninner])
	out := &Batch{Cols: cols, n: n}
	if j.residual != nil {
		sel, err := expr.SelectVector(j.residual, cols, nil, n)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			return nil, nil
		}
		if len(sel) < n {
			out.Sel = sel
		}
	}
	return out, nil
}

// Close implements Operator. It also lets go of the join's buffers; the
// inner scan, like the scans under the outer side, returns its filler's
// buffers as it closes, so a plan held by the plan cache pins none of them.
func (j *IndexNestedLoopJoin) Close() error {
	j.inner.Close()
	j.innerOpen = false
	j.outerRow, j.outer = nil, nil
	j.probes, j.lo, j.hi, j.runRows, j.runEnds = nil, nil, nil, nil, nil
	return j.Outer.Close()
}
