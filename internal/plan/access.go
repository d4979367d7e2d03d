package plan

import (
	"fmt"
	"sort"
	"strings"

	"oldelephant/internal/btree"
	"oldelephant/internal/catalog"
	"oldelephant/internal/exec"
	"oldelephant/internal/expr"
	"oldelephant/internal/sql"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// plannedSource is one FROM entry after access-path selection (or recursive
// planning, for derived tables). Its scope describes the columns it
// contributes to the join row, in operator output order.
type plannedSource struct {
	name      string // alias, lower case
	table     *catalog.Table
	op        exec.Operator
	sc        *scope
	tableOrds []int // base-table ordinal of each contributed column (base tables only)
	ordering  []int // scope ordinals forming the sort-order prefix of the output
	estRows   float64
	estPages  PageEstimate // the access path's cold reads (base tables only)
	desc      string
	// pushed keeps the single-table conjuncts assigned to this source so a
	// join that bypasses the planned access path (index nested loops) can
	// re-apply them as a residual predicate.
	pushed []sql.Expr
}

// colRange is the sargable constraint collected for one column. loSlot and
// hiSlot name the parameter slot a bound came from, or are -1.
type colRange struct {
	lo, hi         value.Value
	loIncl, hiIncl bool
	hasLo, hasHi   bool
	equality       bool
	loSlot, hiSlot int
}

// seekBounds returns the range as one-column seek prefixes (nil = open) and
// records the seek's uses of parameter slots: a bound taken from a slot is
// the one value of its prefix, which binding the slot rewrites in place.
func (r *colRange) seekBounds(slots *slotUses) (lo, hi []value.Value) {
	if r.hasLo {
		lo = []value.Value{r.lo}
		if r.loSlot >= 0 {
			slots.add(r.loSlot, &lo[0])
		}
	}
	if r.hasHi {
		hi = []value.Value{r.hi}
		if r.hiSlot >= 0 {
			slots.add(r.hiSlot, &hi[0])
		}
	}
	return lo, hi
}

// bound narrows the range by one comparison of its column with v, keeping
// the tighter bound on each side: any one bound a conjunct sets keeps every
// row the conjuncts keep, and the residual filter re-checks them all. A bound
// from a parameter slot has no value to compare until it is bound, so it
// replaces the one before it.
func (r *colRange) bound(op string, v value.Value, slot int) {
	if op == "=" {
		r.equality = true
	}
	// tighter reports whether v beats the bound b it would replace, sign
	// being the way a bound tightens; at a tie the exclusive bound is tighter.
	tighter := func(b value.Value, bSlot int, incl bool, sign int) bool {
		if slot >= 0 || bSlot >= 0 {
			return true
		}
		c := sign * value.Compare(v, b)
		return c > 0 || c == 0 && !incl
	}
	if op == "=" || op == ">" || op == ">=" {
		if incl := op != ">"; !r.hasLo || tighter(r.lo, r.loSlot, incl, 1) {
			r.lo, r.loIncl, r.hasLo, r.loSlot = v, incl, true, slot
		}
	}
	if op == "=" || op == "<" || op == "<=" {
		if incl := op != "<"; !r.hasHi || tighter(r.hi, r.hiSlot, incl, -1) {
			r.hi, r.hiIncl, r.hasHi, r.hiSlot = v, incl, true, slot
		}
	}
}

// sargableConstraints extracts per-column ranges from the range predicates
// (sql.ColumnPredicate.IsRange) pushed down to a single base table whose
// bounds are literals or, for an equality, a parameter slot.
func sargableConstraints(t *catalog.Table, alias string, conjuncts []sql.Expr) map[int]*colRange {
	out := make(map[int]*colRange)
	for _, c := range conjuncts {
		p, ok := sql.ColumnPredicateOf(c)
		if !ok || !p.IsRange() || p.Col.Table != "" && !strings.EqualFold(p.Col.Table, alias) {
			continue
		}
		ord := t.ColumnIndex(p.Col.Column)
		if ord < 0 {
			continue
		}
		ops := []string{p.Op}
		if p.Op == "BETWEEN" {
			ops = []string{">=", "<="}
		}
		for i, arg := range p.Args {
			v, slot, ok := seekValue(t.Columns[ord].Kind, arg, ops[i])
			if !ok {
				continue
			}
			if out[ord] == nil {
				out[ord] = &colRange{loSlot: -1, hiSlot: -1}
			}
			out[ord].bound(ops[i], v, slot)
		}
	}
	return out
}

// seekValue returns the value a seek bound takes from a constant operand
// compared with op to a column of kind kind: a literal's value, or the slot a
// parameter comes from (slot >= 0, with a value to be bound). A slot pins its
// column only by equality: a range bound's value would price the range.
func seekValue(kind value.Kind, e sql.Expr, op string) (v value.Value, slot int, ok bool) {
	switch e := e.(type) {
	case *sql.Param:
		return value.Value{Kind: e.Kind}, e.Index, op == "="
	case *sql.Literal:
		v = e.Val
		// Strings compared against DATE columns act as dates.
		if kind == value.KindDate && v.Kind == value.KindString {
			if d, err := value.ParseDate(v.S); err == nil {
				v = d
			}
		}
		return v, -1, true
	}
	return value.Null(), -1, false
}

// rangeSelectivity estimates the fraction of rows selected by a column range.
func rangeSelectivity(t *catalog.Table, ord int, r *colRange) float64 {
	if r.equality {
		return t.Stats.SelectivityEquals(ord)
	}
	lo, hi := value.Null(), value.Null()
	if r.hasLo {
		lo = r.lo
	}
	if r.hasHi {
		hi = r.hi
	}
	return t.Stats.SelectivityRange(ord, lo, hi)
}

// PageEstimate is an access path's estimated cold page reads, split the way
// the pager classifies them.
type PageEstimate struct {
	Seq, Rand float64
}

// Cost prices the estimate in the paper's disk units: sequential page reads,
// with a random read worth storage.RandomReadCost of them.
func (e PageEstimate) Cost() float64 { return e.Seq + storage.RandomReadCost*e.Rand }

// treeRead prices a key-order read of leaves pages of tree. A read with an
// open start begins at the tree's stored leftmost leaf: one random read. A
// bounded start is priced by the tree (btree.BTree.StartReads): on a tree
// with a leaf model, one random read of the predicted leaf and the mean leaves
// walked from it in sequence; on any other, a descent from the root, height
// random reads, the last of them the first leaf. The remaining leaves follow
// the leaf chain sequentially.
func treeRead(tree *btree.BTree, boundedStart bool, leaves float64) PageEstimate {
	e := PageEstimate{Seq: max(leaves, 1) - 1, Rand: 1}
	if boundedStart {
		rand, hops := tree.StartReads()
		e.Rand, e.Seq = rand, e.Seq+hops
	}
	return e
}

// planBaseTable selects the access path for one base-table FROM entry.
//
// Every candidate is priced cold in the paper's disk units (PageEstimate.Cost)
// and the cheapest wins, the full scan on a tie. Leaf counts come from
// statistics: the table's data pages for a scan and a clustered seek, the
// index's estimated leaves for a secondary seek, times the range's
// selectivity. A secondary seek that does not cover the query also pays one
// random read per estimated row to fetch it from the table, at most one per
// table leaf. So a small table is scanned even under a selective predicate: a
// descent of two or three random reads costs more than streaming a few dozen
// leaves after the one random read that reaches the first. On a bulk-loaded
// tree whose leaf model predicts the first leaf, a seek costs about that
// one random read too, and wins from a few leaves up.
func (p *Planner) planBaseTable(t *catalog.Table, alias string, needed []int, pushed []sql.Expr) (*plannedSource, error) {
	if len(needed) == 0 {
		// A table no column of which is referenced still contributes its
		// presence (e.g. COUNT(*) over a cross join); produce its first column.
		needed = []int{0}
	}
	sort.Ints(needed)
	constraints := sargableConstraints(t, alias, pushed)
	dataPages := t.Stats.EstimatedDataPages()
	rowCount := float64(t.Stats.RowCount)

	selAll := 1.0
	for ord, r := range constraints {
		selAll *= rangeSelectivity(t, ord, r)
	}
	estRows := rowCount * selAll
	if estRows < 1 {
		estRows = 1
	}

	type candidate struct {
		op       exec.Operator
		encode   *[]int // the access path's EncodeCols
		est      PageEstimate
		ordering []int // table ordinals of the sort prefix
		desc     string
		slots    slotUses // the seek bounds' uses of parameter slots
	}
	var best *candidate
	consider := func(c candidate) {
		if best == nil || c.est.Cost() < best.est.Cost() {
			cc := c
			best = &cc
		}
	}

	// Candidate 1: full scan.
	scanOrdering := []int{}
	if t.IsClustered() {
		scanOrdering = t.Clustered.KeyColumns
	}
	scan := exec.NewSeqScan(t, needed)
	consider(candidate{
		op:       scan,
		encode:   &scan.EncodeCols,
		est:      treeRead(t.Clustered.Tree(), false, dataPages),
		ordering: scanOrdering,
		desc:     fmt.Sprintf("SeqScan(%s)", t.Name),
	})

	// Candidate 2: clustered seek on the leading clustered-key column.
	if t.IsClustered() {
		lead := t.Clustered.KeyColumns[0]
		if r, ok := constraints[lead]; ok && (r.hasLo || r.hasHi) {
			sel := rangeSelectivity(t, lead, r)
			var slots slotUses
			lo, hi := r.seekBounds(&slots)
			seek, err := exec.NewClusteredSeek(t, lo, hi, r.loIncl, r.hiIncl, needed)
			if err == nil {
				consider(candidate{
					op:       seek,
					encode:   &seek.EncodeCols,
					est:      treeRead(t.Clustered.Tree(), r.hasLo, dataPages*sel),
					ordering: t.Clustered.KeyColumns,
					desc: fmt.Sprintf("ClusteredSeek(%s on %s)",
						t.Name, t.Columns[lead].Name),
					slots: slots,
				})
			}
		}
	}

	// Candidate 3: secondary index seeks.
	for _, idx := range t.Secondary {
		lead := idx.KeyColumns[0]
		r, ok := constraints[lead]
		if !ok || (!r.hasLo && !r.hasHi) {
			continue
		}
		sel := rangeSelectivity(t, lead, r)
		var slots slotUses
		lo, hi := r.seekBounds(&slots)
		seek, err := exec.NewIndexSeek(idx, lo, hi, r.loIncl, r.hiIncl, needed)
		if err != nil {
			continue
		}
		est := treeRead(idx.Tree(), r.hasLo, estimateIndexPages(idx)*sel)
		desc := fmt.Sprintf("IndexSeek(%s.%s covering)", t.Name, idx.Name)
		if !seek.Covered() {
			// Each qualifying row is fetched from the table.
			est.Rand += min(rowCount*sel, dataPages)
			desc = fmt.Sprintf("IndexSeek(%s.%s + lookup)", t.Name, idx.Name)
		}
		consider(candidate{op: seek, encode: &seek.EncodeCols, est: est, ordering: idx.KeyColumns, desc: desc, slots: slots})
	}
	for slot, uses := range best.slots {
		for _, at := range uses {
			p.slots.add(slot, at)
			p.slotBounds = true
		}
	}

	src := &plannedSource{
		name:      strings.ToLower(alias),
		table:     t,
		op:        best.op,
		tableOrds: needed,
		estRows:   estRows,
		estPages:  best.est,
		desc:      best.desc,
	}
	src.sc = &scope{slots: &p.slots}
	for _, ord := range needed {
		src.sc.add(alias, t.Columns[ord].Name, t.Columns[ord].Kind)
	}
	// Map the ordering (table ordinals) onto positions within the produced columns.
	for _, keyOrd := range best.ordering {
		pos := -1
		for i, ord := range needed {
			if ord == keyOrd {
				pos = i
				break
			}
		}
		if pos < 0 {
			break
		}
		src.ordering = append(src.ordering, pos)
	}
	// The sort-prefix columns of the chosen access path arrive in key order,
	// so their batches have long runs (and collapse to a single constant under
	// an equality seek) — mark them for compressed vector emission. This is
	// what lets c-table and materialized-view plans run on Const/RLE vectors:
	// their clustered keys are exactly the paper's run structure.
	if len(src.ordering) > 0 {
		*best.encode = src.ordering
	}
	// Re-apply the pushed predicates as a residual filter: seeks only consume
	// the leading-column range, and re-checking a consumed range is harmless.
	if len(pushed) > 0 {
		pred, err := bindConjuncts(pushed, src.sc)
		if err != nil {
			return nil, err
		}
		if pred != nil {
			src.op = exec.NewFilter(src.op, pred)
			src.desc = fmt.Sprintf("Filter(%s)", src.desc)
		}
	}
	return src, nil
}

// estimateIndexPages approximates the number of leaf pages of a secondary
// index from statistics (share of the base row carried per entry plus
// per-entry key/locator overhead).
func estimateIndexPages(idx *catalog.Index) float64 {
	t := idx.Table
	rowBytes := 1.0
	if t.Stats.RowCount > 0 {
		rowBytes = float64(t.Stats.DataBytes) / float64(t.Stats.RowCount)
	}
	frac := float64(len(idx.EntryColumnOrdinals())) / float64(len(t.Columns))
	entryBytes := rowBytes*frac + 12 + storage.TupleOverhead
	pages := float64(t.Stats.RowCount) * entryBytes / (0.95 * 8192)
	if pages < 1 {
		return 1
	}
	return pages
}

// bindConjuncts binds a list of AST conjuncts against a scope and ANDs them.
func bindConjuncts(conjuncts []sql.Expr, sc *scope) (expr.Expr, error) {
	var preds []expr.Expr
	for _, c := range conjuncts {
		b, err := bindExpr(c, sc)
		if err != nil {
			return nil, err
		}
		preds = append(preds, b)
	}
	return expr.And(preds...), nil
}
