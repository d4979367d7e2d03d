package exec

import (
	"context"
	"fmt"

	"oldelephant/internal/catalog"
	"oldelephant/internal/expr"
	"oldelephant/internal/value"
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
// oracle for VectorizedHashJoin, but shares the typed-key scheme: a single
// numeric key hashes as its value.NumericSortKey word (no string encoding),
// composite and string keys as the order-preserving encoded key, and rows
// whose key contains NULL never match (SQL equality semantics).
type HashJoin struct {
	Left, Right Operator
	LeftKeys    []int
	RightKeys   []int
	Residual    expr.Expr

	fast     map[uint64][]Row
	generic  map[string][]Row
	built    bool
	ctx      context.Context // see Sort.ctx
	fastOK   bool
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
		Residual: residual, fastOK: len(leftKeys) == 1,
		schema: concatSchemas(left.Schema(), right.Schema())}, nil
}

// Schema implements Operator.
func (j *HashJoin) Schema() []ColumnInfo { return j.schema }

// Open implements Operator. The build is deferred to the first pull, so it
// runs under the context ApplyContext pushed after Open.
func (j *HashJoin) Open() error {
	j.fast, j.generic, j.built, j.ctx = nil, nil, false, nil
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
	j.fast, j.generic = nil, make(map[string][]Row)
	if j.fastOK {
		j.fast = make(map[uint64][]Row)
	}
	for _, r := range rows {
		if j.fastOK {
			if w, ok := expr.NumericKeyWord(r[j.RightKeys[0]]); ok {
				j.fast[w] = append(j.fast[w], r)
				continue
			}
		}
		var null bool
		j.keyBuf, null = expr.AppendKey(j.keyBuf[:0], r, j.RightKeys)
		if null {
			continue // NULL keys can never satisfy the equi-join
		}
		j.generic[string(j.keyBuf)] = append(j.generic[string(j.keyBuf)], r)
	}
	j.built = true
	return nil
}

// probe returns the build rows matching the probe row's key (nil for NULL keys).
func (j *HashJoin) probe(row Row) []Row {
	if j.fastOK {
		if w, ok := expr.NumericKeyWord(row[j.LeftKeys[0]]); ok {
			return j.fast[w]
		}
	}
	var null bool
	j.keyBuf, null = expr.AppendKey(j.keyBuf[:0], row, j.LeftKeys)
	if null {
		return nil
	}
	return j.generic[string(j.keyBuf)]
}

// keysCompareEqual re-checks a hash-equal pair with value.Compare: the typed
// key word passes through float64, so two int64 keys beyond 2^53 can share a
// bucket even though SQL '=' (exact for int-int pairs) separates them.
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
		j.leftRow = row
		j.matches = j.probe(row)
		j.matchPos = 0
	}
}

// NextBatch implements Operator.
func (j *HashJoin) NextBatch() (*Batch, bool, error) { return nextBatchFromRows(j, DefaultBatchSize) }

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.fast, j.generic, j.built = nil, nil, false
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
}

// IndexNestedLoopJoin probes an index range for every outer row. The output
// row is outer ++ inner(Cols); Residual (over the output row) filters matches.
type IndexNestedLoopJoin struct {
	Outer    Operator
	Inner    InnerSeekSpec
	Residual expr.Expr

	schema   []ColumnInfo
	outerRow Row
	// inner is the one inner scan, built with the join and re-bound to each
	// outer row's range; innerOpen says it is mid-probe.
	inner     boundScan
	innerOpen bool
}

// boundScan is a leaf access path whose key bounds can be replaced between
// executions: TableScan and IndexSeek.
type boundScan interface {
	Operator
	Rebind(lo, hi []value.Value)
}

// NewIndexNestedLoopJoin builds an index-nested-loop (band) join.
func NewIndexNestedLoopJoin(outer Operator, inner InnerSeekSpec, residual expr.Expr) (*IndexNestedLoopJoin, error) {
	if inner.Table == nil {
		return nil, fmt.Errorf("exec: inner seek requires a table")
	}
	var scan boundScan
	var err error
	if inner.Index != nil {
		scan, err = NewIndexSeek(inner.Index, nil, nil, inner.LoIncl, inner.HiIncl, inner.Cols)
	} else {
		scan, err = NewClusteredSeek(inner.Table, nil, nil, inner.LoIncl, inner.HiIncl, inner.Cols)
	}
	if err != nil {
		return nil, err
	}
	return &IndexNestedLoopJoin{
		Outer: outer, Inner: inner, Residual: residual, inner: scan,
		schema: concatSchemas(outer.Schema(), scan.Schema()),
	}, nil
}

// Schema implements Operator.
func (j *IndexNestedLoopJoin) Schema() []ColumnInfo { return j.schema }

// Open implements Operator.
func (j *IndexNestedLoopJoin) Open() error {
	j.outerRow = nil
	j.innerOpen = false
	return j.Outer.Open()
}

// Child implements Parent. The inner scan is not a child slot: it is part of
// the join, re-bound and re-opened per outer row.
func (j *IndexNestedLoopJoin) Child(i int) *Operator { return slot(i, &j.Outer) }

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

// openInner opens the inner range probe for one outer row. opened is false
// (with no error) when a bound expression evaluated to NULL: a NULL bound can
// never satisfy the join's range predicate, but a raw seek would treat it as
// the smallest key and return spurious rows, so the outer row is skipped.
func (j *IndexNestedLoopJoin) openInner(outer Row) (opened bool, err error) {
	lo, err := evalBounds(j.Inner.LoExprs, outer)
	if err != nil {
		return false, err
	}
	hi, err := evalBounds(j.Inner.HiExprs, outer)
	if err != nil {
		return false, err
	}
	for _, b := range lo {
		if b.IsNull() {
			return false, nil
		}
	}
	for _, b := range hi {
		if b.IsNull() {
			return false, nil
		}
	}
	j.inner.Rebind(lo, hi)
	if err := j.inner.Open(); err != nil {
		return false, err
	}
	j.innerOpen = true
	return true, nil
}

// Next implements Operator.
func (j *IndexNestedLoopJoin) Next() (Row, bool, error) {
	for {
		if !j.innerOpen {
			row, ok, err := j.Outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.outerRow = row
			opened, err := j.openInner(row)
			if err != nil {
				return nil, false, err
			}
			if !opened {
				continue // NULL bound: this outer row cannot match
			}
		}
		for {
			inner, ok, err := j.inner.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.inner.Close()
				j.innerOpen = false
				break
			}
			out := concatRows(j.outerRow, inner)
			pass, err := expr.EvalBool(j.Residual, out)
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
	return nextBatchFromRows(j, DefaultBatchSize)
}

// Close implements Operator.
func (j *IndexNestedLoopJoin) Close() error {
	if j.innerOpen {
		j.inner.Close()
		j.innerOpen = false
	}
	return j.Outer.Close()
}
