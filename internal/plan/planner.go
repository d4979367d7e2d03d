package plan

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"oldelephant/internal/catalog"
	"oldelephant/internal/exec"
	"oldelephant/internal/expr"
	"oldelephant/internal/sql"
	"oldelephant/internal/value"
)

// Planner compiles SELECT statements into operator trees against a catalog.
type Planner struct {
	Catalog *catalog.Catalog
	// DisableVectorized makes equi-joins compile to the row-at-a-time
	// HashJoin instead of the default VectorizedHashJoin. The row engine sets
	// it so its plans stay a pure row-at-a-time oracle for differential
	// testing; the physical plan description is identical either way (same
	// algorithm, different pull protocol).
	DisableVectorized bool

	slots      slotUses // where the plan being built holds each parameter slot
	slotBounds bool     // whether a slot bounds one of its seeks
}

// NewPlanner returns a planner over the given catalog.
func NewPlanner(cat *catalog.Catalog) *Planner { return &Planner{Catalog: cat} }

// Plan is a compiled query: the root operator, the output column labels, and
// a human-readable description of the chosen physical plan.
type Plan struct {
	Root    exec.Operator
	Columns []string
	Explain string
	// Hash is HashText(Explain), set by whoever finalizes Explain (the
	// engine, after the parallel rewrite annotates it). A compiled plan is
	// hashed once; every later execution of a cached instance reuses it.
	Hash    string
	EstRows float64
	// EstPages is the estimated cold page reads of the plan's access path
	// when the plan reads a single base table, nil otherwise. It is what the
	// planner priced the path by, kept beside the plan for EXPLAIN ANALYZE to
	// set against the measured reads; it is not part of Explain.
	EstPages *PageEstimate
	// Slots lists, for each parameter slot of the statement (sql.Param), the
	// places in the operator tree that hold its value: seek bounds and
	// predicate constants. The planner makes no choice from a slot's value,
	// so Bind can give a compiled plan other values. Empty for a statement
	// without slots.
	Slots [][]*value.Value
	// SlotBounds is set when a slot bounds a seek: the size of the range the
	// plan reads then rests on the slots' values.
	SlotBounds bool
	// Parallel is set by whoever applies the morsel-parallel rewrite (the
	// engine) when a pipeline went parallel, a choice made from the size of
	// the ranges the plan reads.
	Parallel bool
}

// Bind gives the plan's parameter slots the values args, one per slot, in
// place: a plan instance leased for one execution is bound before it opens.
// It allocates nothing.
func (pl *Plan) Bind(args []value.Value) error {
	if len(args) != len(pl.Slots) {
		return fmt.Errorf("plan: %d values for %d parameter slots", len(args), len(pl.Slots))
	}
	for i, uses := range pl.Slots {
		for _, at := range uses {
			*at = args[i]
		}
	}
	return nil
}

// slotUses records, per parameter slot, where a plan holds the slot's value.
type slotUses [][]*value.Value

// add records that at holds the value of slot.
func (s *slotUses) add(slot int, at *value.Value) {
	for len(*s) <= slot {
		*s = append(*s, nil)
	}
	(*s)[slot] = append((*s)[slot], at)
}

// HashText fingerprints a plan's textual form (FNV-1a, 16 hex digits): two
// executions with equal hashes ran the same physical plan shape. The empty
// text hashes to "".
func HashText(explain string) string {
	if explain == "" {
		return ""
	}
	h := fnv.New64a()
	h.Write([]byte(explain))
	return hex.EncodeToString(h.Sum(nil))
}

// PlanSelect compiles a SELECT statement.
func (p *Planner) PlanSelect(stmt *sql.SelectStmt) (*Plan, error) {
	// Queries without FROM evaluate the select list over a single empty row.
	if len(stmt.From) == 0 {
		return p.planConstantSelect(stmt)
	}

	// Plan derived tables first so their output columns are known, and build
	// the per-source preliminary scopes used to classify predicates.
	srcScopes := make(map[string]*scope)
	subPlans := make(map[string]*Plan)
	var orderNames []string
	for _, ref := range stmt.From {
		name := strings.ToLower(ref.Name())
		if _, dup := srcScopes[name]; dup {
			return nil, fmt.Errorf("plan: duplicate table name or alias %q in FROM", ref.Name())
		}
		orderNames = append(orderNames, name)
		if ref.Subquery != nil {
			sub, err := p.PlanSelect(ref.Subquery)
			if err != nil {
				return nil, fmt.Errorf("plan: derived table %q: %w", ref.Name(), err)
			}
			subPlans[name] = sub
			sc := &scope{}
			for i, col := range sub.Columns {
				kind := value.KindNull
				if i < len(sub.Root.Schema()) {
					kind = sub.Root.Schema()[i].Kind
				}
				sc.add(name, col, kind)
			}
			srcScopes[name] = sc
		} else {
			t, err := p.Catalog.Table(ref.Table)
			if err != nil {
				return nil, err
			}
			sc := &scope{}
			for _, col := range t.Columns {
				sc.add(ref.Name(), col.Name, col.Kind)
			}
			srcScopes[name] = sc
		}
	}

	// Classify WHERE conjuncts: single-source ones are pushed into the
	// source's access path; multi-source ones drive join planning.
	conjuncts := sql.SplitConjuncts(stmt.Where)
	pushedBySource := make(map[string][]sql.Expr)
	var joinConjuncts []sql.Expr
	var constConjuncts []sql.Expr
	for _, c := range conjuncts {
		if sql.HasAggregate(c) {
			return nil, fmt.Errorf("plan: aggregates are not allowed in WHERE")
		}
		srcs := exprSources(c, srcScopes)
		switch len(srcs) {
		case 0:
			constConjuncts = append(constConjuncts, c)
		case 1:
			for name := range srcs {
				pushedBySource[name] = append(pushedBySource[name], c)
			}
		default:
			joinConjuncts = append(joinConjuncts, c)
		}
	}

	// Column requirements per source: every column referenced anywhere.
	needed := p.neededColumns(stmt, srcScopes)

	// Build planned sources in FROM order.
	var sources []*plannedSource
	for _, ref := range stmt.From {
		name := strings.ToLower(ref.Name())
		if sub, ok := subPlans[name]; ok {
			src := &plannedSource{
				name:    name,
				op:      sub.Root,
				sc:      srcScopes[name],
				estRows: sub.EstRows,
				desc:    fmt.Sprintf("Subquery(%s)", name),
			}
			// Apply single-source predicates over the derived table's output.
			if pushed := pushedBySource[name]; len(pushed) > 0 {
				pred, err := bindConjuncts(pushed, src.sc)
				if err != nil {
					return nil, err
				}
				src.op = exec.NewFilter(src.op, pred)
				src.desc = "Filter(" + src.desc + ")"
			}
			sources = append(sources, src)
			continue
		}
		t, err := p.Catalog.Table(ref.Table)
		if err != nil {
			return nil, err
		}
		src, err := p.planBaseTable(t, ref.Name(), needed[name], pushedBySource[name])
		if err != nil {
			return nil, err
		}
		src.pushed = pushedBySource[name]
		sources = append(sources, src)
	}

	// Join everything left-to-right.
	joined, err := p.joinSources(sources, joinConjuncts, stmt.Hints)
	if err != nil {
		return nil, err
	}

	// Constant-only predicates (no column references).
	if len(constConjuncts) > 0 {
		pred, err := bindConjuncts(constConjuncts, joined.sc)
		if err != nil {
			return nil, err
		}
		joined.op = exec.NewFilter(joined.op, pred)
	}

	pl, err := p.finishSelect(stmt, joined)
	if err != nil {
		return nil, err
	}
	if len(sources) == 1 && sources[0].table != nil {
		est := sources[0].estPages
		pl.EstPages = &est
	}
	pl.Slots, pl.SlotBounds = p.slots, p.slotBounds
	return pl, nil
}

// planConstantSelect handles SELECT lists without a FROM clause.
func (p *Planner) planConstantSelect(stmt *sql.SelectStmt) (*Plan, error) {
	base := exec.NewValuesScan(nil, []exec.Row{{}})
	joined := &joinedRelation{op: base, sc: &scope{}, estRows: 1, desc: "SingleRow"}
	return p.finishSelect(stmt, joined)
}

// neededColumns resolves every column reference in the statement to its
// source and base-table ordinal.
func (p *Planner) neededColumns(stmt *sql.SelectStmt, srcScopes map[string]*scope) map[string][]int {
	needed := make(map[string]map[int]bool)
	addRef := func(ref *sql.ColRef) {
		for name, sc := range srcScopes {
			if ref.Table != "" && !strings.EqualFold(ref.Table, name) {
				continue
			}
			for i, c := range sc.cols {
				if c.Name == strings.ToLower(ref.Column) {
					if needed[name] == nil {
						needed[name] = make(map[int]bool)
					}
					needed[name][i] = true
				}
			}
		}
	}
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch t := e.(type) {
		case nil:
		case *sql.ColRef:
			addRef(t)
		case *sql.BinExpr:
			walk(t.L)
			walk(t.R)
		case *sql.NotExpr:
			walk(t.E)
		case *sql.BetweenExpr:
			walk(t.E)
			walk(t.Lo)
			walk(t.Hi)
		case *sql.InExpr:
			walk(t.E)
			for _, i := range t.List {
				walk(i)
			}
		case *sql.IsNullExpr:
			walk(t.E)
		case *sql.FuncCall:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	star := false
	for _, item := range stmt.Select {
		if item.Star {
			star = true
			continue
		}
		walk(item.Expr)
	}
	walk(stmt.Where)
	for _, g := range stmt.GroupBy {
		walk(g)
	}
	walk(stmt.Having)
	for _, o := range stmt.OrderBy {
		walk(o.Expr)
	}
	out := make(map[string][]int)
	for name, sc := range srcScopes {
		if star {
			out[name] = allOrdinalsUpTo(len(sc.cols))
			continue
		}
		var ords []int
		for ord := range needed[name] {
			ords = append(ords, ord)
		}
		sort.Ints(ords)
		out[name] = ords
	}
	return out
}

func allOrdinalsUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// aggBinding records one planned aggregate: its canonical SQL text and its
// output position after the grouping operator.
type aggBinding struct {
	key  string
	spec exec.AggSpec
}

// finishSelect applies aggregation, HAVING, projection, DISTINCT, ORDER BY
// and LIMIT over the joined relation.
func (p *Planner) finishSelect(stmt *sql.SelectStmt, joined *joinedRelation) (*Plan, error) {
	// Gather aggregates from SELECT, HAVING and ORDER BY.
	var aggCalls []*sql.FuncCall
	for _, item := range stmt.Select {
		if !item.Star {
			collectAggregates(item.Expr, &aggCalls)
		}
	}
	collectAggregates(stmt.Having, &aggCalls)
	for _, o := range stmt.OrderBy {
		collectAggregates(o.Expr, &aggCalls)
	}
	needAgg := len(stmt.GroupBy) > 0 || len(aggCalls) > 0

	op := joined.op
	outScope := joined.sc
	explain := joined.desc
	estRows := joined.estRows

	var aggs []aggBinding
	var groupOrds []int
	if needAgg {
		// Resolve GROUP BY columns.
		for _, g := range stmt.GroupBy {
			ref, ok := g.(*sql.ColRef)
			if !ok {
				return nil, fmt.Errorf("plan: GROUP BY supports column references only, got %q", g.String())
			}
			ord, err := joined.sc.resolve(ref)
			if err != nil {
				return nil, err
			}
			groupOrds = append(groupOrds, ord)
		}
		// Deduplicate aggregate calls by their canonical rendering.
		seen := make(map[string]bool)
		for _, fc := range aggCalls {
			key := strings.ToUpper(fc.String())
			if seen[key] {
				continue
			}
			seen[key] = true
			spec, err := p.buildAggSpec(fc, joined.sc)
			if err != nil {
				return nil, err
			}
			aggs = append(aggs, aggBinding{key: key, spec: spec})
		}
		specs := make([]exec.AggSpec, len(aggs))
		for i, a := range aggs {
			specs[i] = a.spec
		}
		// Stream aggregation if the input is already clustered on the group
		// columns (or the user hinted it); hash aggregation otherwise.
		streamOK := groupPrefixOfOrdering(groupOrds, joined.ordering)
		useStream := streamOK
		if hasHint(stmt.Hints, "HASH AGG") {
			useStream = false
		}
		if hasHint(stmt.Hints, "STREAM AGG") && !streamOK {
			op = exec.NewSort(op, sortKeysFor(groupOrds))
			explain = "Sort(" + explain + ")"
			useStream = true
		}
		if useStream {
			op = exec.NewStreamAggregate(op, groupOrds, specs)
			explain = "StreamAggregate(" + explain + ")"
		} else {
			op = exec.NewHashAggregate(op, groupOrds, specs)
			explain = "HashAggregate(" + explain + ")"
		}
		// Post-aggregation scope: group columns keep their names; aggregates
		// are addressable by their canonical text.
		post := &scope{}
		for _, g := range groupOrds {
			post.cols = append(post.cols, joined.sc.cols[g])
		}
		for _, a := range aggs {
			post.add("", a.key, value.KindNull)
		}
		outScope = post
		if len(groupOrds) > 0 {
			estRows = estRows / 10
			if estRows < 1 {
				estRows = 1
			}
		} else {
			estRows = 1
		}
	}

	// HAVING.
	if stmt.Having != nil {
		if !needAgg {
			return nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
		}
		pred, err := p.bindWithAggregates(stmt.Having, outScope, groupOrds, aggs, joined.sc)
		if err != nil {
			return nil, err
		}
		op = exec.NewFilter(op, pred)
		explain = "Having(" + explain + ")"
	}

	// Final projection.
	var projExprs []expr.Expr
	var names []string
	for _, item := range stmt.Select {
		if item.Star {
			if needAgg {
				return nil, fmt.Errorf("plan: SELECT * cannot be combined with GROUP BY or aggregates")
			}
			for i, c := range joined.sc.cols {
				projExprs = append(projExprs, expr.NewColumn(i, c.Name))
				names = append(names, c.Name)
			}
			continue
		}
		var bound expr.Expr
		var err error
		if needAgg {
			bound, err = p.bindWithAggregates(item.Expr, outScope, groupOrds, aggs, joined.sc)
		} else {
			bound, err = bindExpr(item.Expr, outScope)
		}
		if err != nil {
			return nil, err
		}
		projExprs = append(projExprs, bound)
		names = append(names, item.Label())
	}
	op = exec.NewProject(op, projExprs, names)
	explain = "Project(" + explain + ")"

	// DISTINCT via grouping on all output columns.
	if stmt.Distinct {
		ords := allOrdinalsUpTo(len(projExprs))
		op = exec.NewHashAggregate(op, ords, nil)
		explain = "Distinct(" + explain + ")"
	}

	// ORDER BY over the projected output.
	if len(stmt.OrderBy) > 0 {
		keys, err := p.bindOrderBy(stmt, names, outScope, groupOrds, aggs, joined.sc, needAgg)
		if err != nil {
			return nil, err
		}
		op = exec.NewSort(op, keys)
		explain = "Sort(" + explain + ")"
	}

	// LIMIT / OFFSET.
	if stmt.Limit >= 0 || stmt.Offset > 0 {
		op = exec.NewLimit(op, stmt.Limit, stmt.Offset)
		explain = "Limit(" + explain + ")"
	}

	return &Plan{Root: op, Columns: names, Explain: explain, EstRows: estRows}, nil
}

// buildAggSpec converts an aggregate call into an executable AggSpec bound
// over the pre-aggregation scope.
func (p *Planner) buildAggSpec(fc *sql.FuncCall, sc *scope) (exec.AggSpec, error) {
	spec := exec.AggSpec{Name: fc.String()}
	switch fc.Name {
	case "COUNT":
		if fc.Star {
			spec.Kind = exec.AggCountStar
			return spec, nil
		}
		spec.Kind = exec.AggCount
	case "SUM":
		spec.Kind = exec.AggSum
	case "MIN":
		spec.Kind = exec.AggMin
	case "MAX":
		spec.Kind = exec.AggMax
	case "AVG":
		spec.Kind = exec.AggAvg
	default:
		return spec, fmt.Errorf("plan: unsupported aggregate %q", fc.Name)
	}
	if len(fc.Args) != 1 {
		return spec, fmt.Errorf("plan: aggregate %s expects one argument", fc.Name)
	}
	arg, err := bindExpr(fc.Args[0], sc)
	if err != nil {
		return spec, err
	}
	spec.Arg = arg
	return spec, nil
}

// bindWithAggregates binds an expression that may reference aggregate results
// and group-by columns, against the post-aggregation scope.
func (p *Planner) bindWithAggregates(e sql.Expr, post *scope, groupOrds []int, aggs []aggBinding, pre *scope) (expr.Expr, error) {
	switch t := e.(type) {
	case *sql.FuncCall:
		if t.IsAggregate() {
			key := strings.ToUpper(t.String())
			for i, a := range aggs {
				if a.key == key {
					return expr.NewColumn(len(groupOrds)+i, t.String()), nil
				}
			}
			return nil, fmt.Errorf("plan: aggregate %q not planned", t.String())
		}
		if t.Name != "COALESCE" || len(t.Args) == 0 {
			return nil, fmt.Errorf("plan: unsupported function %q", t.Name)
		}
		args := make([]expr.Expr, len(t.Args))
		for i, a := range t.Args {
			var err error
			if args[i], err = p.bindWithAggregates(a, post, groupOrds, aggs, pre); err != nil {
				return nil, err
			}
		}
		return &expr.Coalesce{Args: args}, nil
	case *sql.ColRef:
		// Group-by columns are addressable by their pre-aggregation names.
		for i, g := range groupOrds {
			c := pre.cols[g]
			if c.Name == strings.ToLower(t.Column) && (t.Table == "" || strings.ToLower(t.Table) == c.Qualifier) {
				return expr.NewColumn(i, t.String()), nil
			}
		}
		return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or inside an aggregate", t.String())
	case *sql.Literal:
		return expr.NewConst(t.Val), nil
	case *sql.BinExpr:
		l, err := p.bindWithAggregates(t.L, post, groupOrds, aggs, pre)
		if err != nil {
			return nil, err
		}
		r, err := p.bindWithAggregates(t.R, post, groupOrds, aggs, pre)
		if err != nil {
			return nil, err
		}
		op, err := binaryOp(t.Op)
		if err != nil {
			return nil, err
		}
		return expr.NewBinary(op, l, r), nil
	case *sql.NotExpr:
		inner, err := p.bindWithAggregates(t.E, post, groupOrds, aggs, pre)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil
	case *sql.BetweenExpr:
		v, err := p.bindWithAggregates(t.E, post, groupOrds, aggs, pre)
		if err != nil {
			return nil, err
		}
		lo, err := p.bindWithAggregates(t.Lo, post, groupOrds, aggs, pre)
		if err != nil {
			return nil, err
		}
		hi, err := p.bindWithAggregates(t.Hi, post, groupOrds, aggs, pre)
		if err != nil {
			return nil, err
		}
		return &expr.Between{E: v, Lo: lo, Hi: hi}, nil
	case *sql.IsNullExpr:
		v, err := p.bindWithAggregates(t.E, post, groupOrds, aggs, pre)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: v, Negate: t.Not}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T after aggregation", e)
	}
}

// bindOrderBy resolves ORDER BY terms against the projected output: by
// 1-based position, by output label, or by matching a select item expression.
func (p *Planner) bindOrderBy(stmt *sql.SelectStmt, names []string, post *scope, groupOrds []int, aggs []aggBinding, pre *scope, needAgg bool) ([]exec.SortKey, error) {
	var keys []exec.SortKey
	for _, o := range stmt.OrderBy {
		ord := -1
		switch t := o.Expr.(type) {
		case *sql.Literal:
			if t.Val.Kind == value.KindInt {
				pos := int(t.Val.I)
				if pos < 1 || pos > len(names) {
					return nil, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
				}
				ord = pos - 1
			}
		case *sql.ColRef:
			for i, n := range names {
				if strings.EqualFold(n, t.Column) {
					ord = i
					break
				}
			}
		}
		if ord < 0 {
			// Fall back to matching the rendering of a select item.
			want := strings.ToUpper(o.Expr.String())
			for i, item := range stmt.Select {
				if !item.Star && strings.ToUpper(item.Expr.String()) == want {
					ord = i
					break
				}
			}
		}
		if ord < 0 {
			return nil, fmt.Errorf("plan: cannot resolve ORDER BY term %q against the select list", o.Expr.String())
		}
		keys = append(keys, exec.SortKey{Col: ord, Desc: o.Desc})
	}
	return keys, nil
}

// groupPrefixOfOrdering reports whether the group columns form (a permutation
// of) a prefix of the input's sort order, which makes streaming aggregation safe.
func groupPrefixOfOrdering(groupOrds, ordering []int) bool {
	if len(groupOrds) == 0 {
		return true
	}
	if len(ordering) < len(groupOrds) {
		return false
	}
	prefix := make(map[int]bool)
	for _, o := range ordering[:len(groupOrds)] {
		prefix[o] = true
	}
	for _, g := range groupOrds {
		if !prefix[g] {
			return false
		}
	}
	return true
}

func sortKeysFor(ords []int) []exec.SortKey {
	keys := make([]exec.SortKey, len(ords))
	for i, o := range ords {
		keys[i] = exec.SortKey{Col: o}
	}
	return keys
}

// hasHint reports whether the hint list contains the given hint text.
func hasHint(hints []string, want string) bool {
	for _, h := range hints {
		if strings.EqualFold(strings.TrimSpace(h), want) {
			return true
		}
	}
	return false
}
