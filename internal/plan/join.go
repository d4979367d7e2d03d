package plan

import (
	"fmt"
	"strings"

	"oldelephant/internal/catalog"
	"oldelephant/internal/exec"
	"oldelephant/internal/expr"
	"oldelephant/internal/sql"
	"oldelephant/internal/value"
)

// joinedRelation is the running result of left-deep join planning.
type joinedRelation struct {
	op       exec.Operator
	sc       *scope
	ordering []int
	estRows  float64
	desc     string
	names    map[string]bool // source names included so far
}

// bandBound is one side of an index-seekable join constraint on the inner
// table's leading key column, expressed over the outer row.
type bandBound struct {
	loExpr, hiExpr sql.Expr
	loIncl, hiIncl bool
	equality       bool
	// loConj and hiConj are the conjuncts (indexes into the available ones)
	// the bounds come from; a BETWEEN or an equality gives both.
	loConj, hiConj int
}

// joinSources combines the planned FROM sources left to right, choosing a
// join algorithm per step:
//
//   - an index-nested-loop join when a join conjunct constrains the leading
//     key column of the next source's clustered or secondary index with
//     bounds computed from the rows seen so far (this is the band join the
//     paper's c-table rewritings rely on), and either the predicate is a
//     range (hash joins cannot handle it) or the outer is estimated to be
//     small — or the query hints OPTION(LOOP JOIN);
//   - a hash join for equality predicates (OPTION(HASH JOIN) forces it);
//   - a merge join when hinted via OPTION(MERGE JOIN), sorting inputs as needed;
//   - a nested-loop join as the fallback.
func (p *Planner) joinSources(sources []*plannedSource, joinConjuncts []sql.Expr, hints []string) (*joinedRelation, error) {
	cur := &joinedRelation{
		op:       sources[0].op,
		sc:       sources[0].sc,
		ordering: sources[0].ordering,
		estRows:  sources[0].estRows,
		desc:     sources[0].desc,
		names:    map[string]bool{sources[0].name: true},
	}
	consumed := make([]bool, len(joinConjuncts))
	for i := 1; i < len(sources); i++ {
		s := sources[i]
		// Conjuncts that become available once s joins the relation.
		var avail []sql.Expr
		var availIdx []int
		for ci, c := range joinConjuncts {
			if consumed[ci] {
				continue
			}
			srcs := p.conjunctSources(c, sources)
			if !srcs[s.name] {
				continue
			}
			ok := true
			for name := range srcs {
				if name != s.name && !cur.names[name] {
					ok = false
					break
				}
			}
			if ok {
				avail = append(avail, c)
				availIdx = append(availIdx, ci)
			}
		}
		next, err := p.joinPair(cur, s, avail, hints)
		if err != nil {
			return nil, err
		}
		for _, ci := range availIdx {
			consumed[ci] = true
		}
		next.names = cur.names
		next.names[s.name] = true
		cur = next
	}
	// Any conjunct not yet consumed must now be resolvable over the full row.
	var leftovers []sql.Expr
	for ci, c := range joinConjuncts {
		if !consumed[ci] {
			leftovers = append(leftovers, c)
		}
	}
	if len(leftovers) > 0 {
		pred, err := bindConjuncts(leftovers, cur.sc)
		if err != nil {
			return nil, err
		}
		cur.op = exec.NewFilter(cur.op, pred)
		cur.desc = "Filter(" + cur.desc + ")"
	}
	return cur, nil
}

// conjunctSources resolves which planned sources a conjunct references, using
// the per-source scopes (aliases and column names).
func (p *Planner) conjunctSources(c sql.Expr, sources []*plannedSource) map[string]bool {
	bySource := make(map[string]*scope, len(sources))
	for _, s := range sources {
		bySource[s.name] = s.sc
	}
	return exprSources(c, bySource)
}

// joinPair joins the running relation with the next source.
func (p *Planner) joinPair(cur *joinedRelation, s *plannedSource, avail []sql.Expr, hints []string) (*joinedRelation, error) {
	combined := cur.sc.concat(s.sc)

	// Equality keys over (cur, s). Conjuncts consumed as hash-join keys are
	// excluded from the hash-join residual: the key match enforces the
	// identical SQL equality (NULL keys never match inside the operators), so
	// re-evaluating them per matched row would only burn the probe hot path.
	var leftKeys, rightKeys []int
	keyConjunct := make([]bool, len(avail))
	for ci, c := range avail {
		be, ok := c.(*sql.BinExpr)
		if !ok || be.Op != "=" {
			continue
		}
		lRef, lOK := be.L.(*sql.ColRef)
		rRef, rOK := be.R.(*sql.ColRef)
		if !lOK || !rOK {
			continue
		}
		if cur.sc.has(lRef) && s.sc.has(rRef) {
			lo, _ := cur.sc.resolve(lRef)
			ro, _ := s.sc.resolve(rRef)
			leftKeys = append(leftKeys, lo)
			rightKeys = append(rightKeys, ro)
			keyConjunct[ci] = true
		} else if cur.sc.has(rRef) && s.sc.has(lRef) {
			lo, _ := cur.sc.resolve(rRef)
			ro, _ := s.sc.resolve(lRef)
			leftKeys = append(leftKeys, lo)
			rightKeys = append(rightKeys, ro)
			keyConjunct[ci] = true
		}
	}
	var hashResidualAST []sql.Expr
	for ci, c := range avail {
		if !keyConjunct[ci] {
			hashResidualAST = append(hashResidualAST, c)
		}
	}

	// Index-nested-loop candidacy with s as the inner side.
	band, bandIdx := p.findBandAccess(cur, s, avail)

	forceLoop := hasHint(hints, "LOOP JOIN")
	forceHash := hasHint(hints, "HASH JOIN")
	forceMerge := hasHint(hints, "MERGE JOIN")

	useINL := false
	if band != nil && !forceHash && !forceMerge {
		if forceLoop {
			useINL = true
		} else if !band.equality {
			// Range (band) predicates cannot be hash- or merge-joined.
			useINL = true
		} else if s.table != nil {
			innerPages := s.table.Stats.EstimatedDataPages()
			if cur.estRows*4 < innerPages {
				useINL = true
			}
		}
	}

	if useINL {
		var idx *catalog.Index
		if bandIdx != nil && !bandIdx.Clustered {
			idx = bandIdx
		}
		loExprs, hiExprs, err := bindBandBounds(band, cur.sc)
		if err != nil {
			return nil, err
		}
		spec := exec.InnerSeekSpec{
			Table:   s.table,
			Index:   idx,
			LoExprs: loExprs,
			HiExprs: hiExprs,
			LoIncl:  band.loIncl,
			HiIncl:  band.hiIncl,
			Cols:    s.tableOrds,
		}
		// Residual: every available conjunct plus the inner table's own
		// single-table predicates (the planned access path of s is bypassed),
		// less the band conjuncts the seek bounds enforce exactly: those go
		// to spec.Band, checked only where a bound value is not of the key's
		// kind (exec.InnerSeekSpec).
		var residualAST, bandAST []sql.Expr
		exact := exactBand(band, bandIdx)
		for ci, c := range avail {
			if exact && (ci == band.loConj || ci == band.hiConj) {
				bandAST = append(bandAST, c)
			} else {
				residualAST = append(residualAST, c)
			}
		}
		residual, err := bindConjuncts(append(residualAST, s.pushed...), combined)
		if err != nil {
			return nil, err
		}
		if spec.Band, err = bindConjuncts(bandAST, combined); err != nil {
			return nil, err
		}
		join, err := exec.NewIndexNestedLoopJoin(cur.op, spec, residual)
		if err != nil {
			return nil, err
		}
		est := cur.estRows * 10
		if band.equality {
			est = cur.estRows * joinFanout(s)
		}
		target := "clustered"
		if idx != nil {
			target = idx.Name
		}
		return &joinedRelation{
			op:       join,
			sc:       combined,
			ordering: cur.ordering, // outer order is preserved
			estRows:  est,
			desc:     fmt.Sprintf("IndexNLJoin(%s, %s via %s)", cur.desc, s.table.Name, target),
		}, nil
	}

	if forceMerge && len(leftKeys) > 0 {
		leftOp, leftOrdered := cur.op, orderedOnPrefix(cur.ordering, leftKeys)
		if !leftOrdered {
			leftOp = exec.NewSort(leftOp, sortKeysFor(leftKeys))
		}
		rightOp, rightOrdered := s.op, orderedOnPrefix(s.ordering, rightKeys)
		if !rightOrdered {
			rightOp = exec.NewSort(rightOp, sortKeysFor(rightKeys))
		}
		// The residual keeps every conjunct, the key equalities included: a
		// merge join is reached only through a hint, and re-checking the
		// equalities the key match already enforced is harmless.
		residual, err := bindConjuncts(avail, combined)
		if err != nil {
			return nil, err
		}
		join, err := exec.NewMergeJoin(leftOp, rightOp, leftKeys, rightKeys, residual)
		if err != nil {
			return nil, err
		}
		return &joinedRelation{
			op:       join,
			sc:       combined,
			ordering: leftKeys,
			estRows:  equiJoinEstimate(cur, s),
			desc:     fmt.Sprintf("MergeJoin(%s, %s)", cur.desc, s.desc),
		}, nil
	}

	if len(leftKeys) > 0 {
		// Only the conjuncts not consumed as keys: the key match
		// enforces equality exactly, NULLs included.
		residual, err := bindConjuncts(hashResidualAST, combined)
		if err != nil {
			return nil, err
		}
		// The hash-join algorithm has two executors: the batch-native
		// VectorizedHashJoin (one key index, batch probe, morsel-parallel build)
		// for vectorized engines, and the row-at-a-time HashJoin kept as the
		// row engine's oracle. Same algorithm, same plan description.
		var join exec.Operator
		if p.DisableVectorized {
			join, err = exec.NewHashJoin(cur.op, s.op, leftKeys, rightKeys, residual)
		} else {
			join, err = exec.NewVectorizedHashJoin(cur.op, s.op, leftKeys, rightKeys, residual)
		}
		if err != nil {
			return nil, err
		}
		return &joinedRelation{
			op:       join,
			sc:       combined,
			ordering: cur.ordering, // probe side streams in order
			estRows:  equiJoinEstimate(cur, s),
			desc:     fmt.Sprintf("HashJoin(%s, %s)", cur.desc, s.desc),
		}, nil
	}

	// Fallback: nested loops with the full predicate.
	pred, err := bindConjuncts(avail, combined)
	if err != nil {
		return nil, err
	}
	join := exec.NewNestedLoopJoin(cur.op, s.op, pred)
	return &joinedRelation{
		op:       join,
		sc:       combined,
		ordering: cur.ordering,
		estRows:  cur.estRows * s.estRows,
		desc:     fmt.Sprintf("NestedLoopJoin(%s, %s)", cur.desc, s.desc),
	}, nil
}

// joinFanout estimates the average number of inner matches per outer row for
// an equality INL join.
func joinFanout(s *plannedSource) float64 {
	if s.table == nil || s.table.Stats.RowCount == 0 {
		return 1
	}
	lead := 0
	if s.table.IsClustered() {
		lead = s.table.Clustered.KeyColumns[0]
	}
	d := float64(s.table.Stats.DistinctCount(lead))
	if d <= 0 {
		return 1
	}
	f := float64(s.table.Stats.RowCount) / d
	if f < 1 {
		return 1
	}
	return f
}

func equiJoinEstimate(cur *joinedRelation, s *plannedSource) float64 {
	est := cur.estRows
	if s.estRows > est {
		est = s.estRows
	}
	return est
}

// orderedOnPrefix reports whether ordering starts with exactly the given keys.
func orderedOnPrefix(ordering, keys []int) bool {
	if len(ordering) < len(keys) {
		return false
	}
	for i, k := range keys {
		if ordering[i] != k {
			return false
		}
	}
	return true
}

// findBandAccess looks for join conjuncts that constrain the leading key
// column of one of s's indexes (clustered first, then secondary) with bounds
// computable from the current relation's row. It returns the collected bound
// and the index to probe (nil index result means no band access is possible;
// a returned *catalog.Index with Clustered=true represents the clustered index).
func (p *Planner) findBandAccess(cur *joinedRelation, s *plannedSource, avail []sql.Expr) (*bandBound, *catalog.Index) {
	if s.table == nil {
		return nil, nil
	}
	var candidates []*catalog.Index
	if s.table.IsClustered() {
		candidates = append(candidates, s.table.Clustered)
	}
	candidates = append(candidates, s.table.Secondary...)
	for _, idx := range candidates {
		lead := idx.KeyColumns[0]
		b := p.collectBandBound(cur, s, avail, lead)
		if b != nil {
			return b, idx
		}
	}
	return nil, nil
}

// collectBandBound gathers lower/upper bounds on s.<leadOrd> from the
// available conjuncts, where the bounding expressions reference only columns
// of the current relation (or constants).
func (p *Planner) collectBandBound(cur *joinedRelation, s *plannedSource, avail []sql.Expr, leadOrd int) *bandBound {
	isInnerLead := func(e sql.Expr) bool {
		ref, ok := e.(*sql.ColRef)
		if !ok {
			return false
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, s.name) {
			return false
		}
		if !s.sc.has(ref) {
			return false
		}
		return s.table.ColumnIndex(ref.Column) == leadOrd
	}
	outerOnly := func(e sql.Expr) bool {
		if exprSources(e, map[string]*scope{s.name: s.sc})[s.name] {
			return false
		}
		// Must bind against the current scope.
		_, err := bindExpr(e, cur.sc)
		return err == nil
	}
	b := &bandBound{loConj: -1, hiConj: -1}
	// A one-sided conjunct that replaces one side of a two-sided one (a
	// BETWEEN or an equality) leaves the seek enforcing only the other side
	// of it, so that conjunct names neither side and stays in the residual.
	setLo := func(e sql.Expr, incl bool, ci int) {
		if b.hiConj == b.loConj {
			b.hiConj = -1
		}
		b.loExpr, b.loIncl, b.loConj = e, incl, ci
	}
	setHi := func(e sql.Expr, incl bool, ci int) {
		if b.loConj == b.hiConj {
			b.loConj = -1
		}
		b.hiExpr, b.hiIncl, b.hiConj = e, incl, ci
	}
	found := false
	for ci, c := range avail {
		switch e := c.(type) {
		case *sql.BetweenExpr:
			if e.Not || !isInnerLead(e.E) || !outerOnly(e.Lo) || !outerOnly(e.Hi) {
				continue
			}
			b.loExpr, b.hiExpr = e.Lo, e.Hi
			b.loIncl, b.hiIncl = true, true
			b.loConj, b.hiConj = ci, ci
			found = true
		case *sql.BinExpr:
			op := e.Op
			var outer sql.Expr
			if isInnerLead(e.L) && outerOnly(e.R) {
				outer = e.R
			} else if isInnerLead(e.R) && outerOnly(e.L) {
				outer = e.L
				op = sql.FlipOp(op)
			} else {
				continue
			}
			switch op {
			case "=":
				b.loExpr, b.hiExpr = outer, outer
				b.loIncl, b.hiIncl = true, true
				b.loConj, b.hiConj = ci, ci
				b.equality = true
				found = true
			case ">":
				setLo(outer, false, ci)
				found = true
			case ">=":
				setLo(outer, true, ci)
				found = true
			case "<":
				setHi(outer, false, ci)
				found = true
			case "<=":
				setHi(outer, true, ci)
				found = true
			}
		}
	}
	if !found {
		return nil
	}
	return b
}

// exactBand reports whether the seek bounds of a band access over idx keep
// exactly the rows its conjuncts keep whenever the bound values are of the
// key's kind, so that those conjuncts need no re-check: a single-column key
// (a bound on a composite key's leading column is a prefix cut) of a kind
// whose stored-key order is value.Compare's without exception — INT, DATE or
// STRING, not FLOAT, where NaN equals every number — and a lower bound, which
// keeps the NULL keys out that SQL's comparisons reject.
func exactBand(b *bandBound, idx *catalog.Index) bool {
	if b.loExpr == nil || len(idx.KeyColumns) != 1 {
		return false
	}
	switch idx.Table.Columns[idx.KeyColumns[0]].Kind {
	case value.KindInt, value.KindDate, value.KindString:
		return true
	}
	return false
}

// bindBandBounds binds the bound expressions of a band access over the outer scope.
func bindBandBounds(b *bandBound, outer *scope) (lo, hi []expr.Expr, err error) {
	if b.loExpr != nil {
		e, err := bindExpr(b.loExpr, outer)
		if err != nil {
			return nil, nil, err
		}
		lo = []expr.Expr{e}
	}
	if b.hiExpr != nil {
		e, err := bindExpr(b.hiExpr, outer)
		if err != nil {
			return nil, nil, err
		}
		hi = []expr.Expr{e}
	}
	return lo, hi, nil
}
