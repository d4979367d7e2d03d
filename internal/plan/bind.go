// Package plan turns parsed SQL statements into executable operator trees.
// It performs name resolution, access-path selection (scan vs. clustered
// seek vs. secondary-index seek), join planning (hash, merge, nested-loop
// and band-capable index-nested-loop joins), aggregation planning (hash vs.
// stream) and final projection/ordering, guided by simple cardinality
// estimates from catalog statistics and by query hints.
package plan

import (
	"fmt"
	"strings"

	"oldelephant/internal/expr"
	"oldelephant/internal/sql"
	"oldelephant/internal/value"
)

// scopeColumn is one column visible while binding expressions.
type scopeColumn struct {
	Qualifier string // source alias (lower case), may be empty
	Name      string // column name (lower case)
	Kind      value.Kind
}

// scope is an ordered list of visible columns; ordinals index rows produced
// by the operator the scope describes.
type scope struct {
	cols []scopeColumn
	// slots, when set, lets parameter slots bind in this scope: a base
	// table's scope, where the conjuncts pushed to the table are bound.
	slots *slotUses
}

func (s *scope) add(qualifier, name string, kind value.Kind) {
	s.cols = append(s.cols, scopeColumn{
		Qualifier: strings.ToLower(qualifier),
		Name:      strings.ToLower(name),
		Kind:      kind,
	})
}

// concat returns a scope holding this scope's columns followed by o's.
func (s *scope) concat(o *scope) *scope {
	out := &scope{cols: make([]scopeColumn, 0, len(s.cols)+len(o.cols))}
	out.cols = append(out.cols, s.cols...)
	out.cols = append(out.cols, o.cols...)
	return out
}

// resolve finds the ordinal of a column reference. Unqualified names must be
// unambiguous across the scope.
func (s *scope) resolve(ref *sql.ColRef) (int, error) {
	q := strings.ToLower(ref.Table)
	n := strings.ToLower(ref.Column)
	found := -1
	for i, c := range s.cols {
		if c.Name != n {
			continue
		}
		if q != "" && c.Qualifier != q {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("plan: ambiguous column reference %q", ref.String())
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: unknown column %q", ref.String())
	}
	return found, nil
}

// has reports whether the reference resolves in this scope unambiguously.
func (s *scope) has(ref *sql.ColRef) bool {
	_, err := s.resolve(ref)
	return err == nil
}

// bindExpr converts an AST expression to a bound executable expression over
// the scope. Aggregate function calls are rejected; they are handled by the
// aggregation planner with a dedicated post-aggregation scope.
func bindExpr(e sql.Expr, sc *scope) (expr.Expr, error) {
	switch t := e.(type) {
	case *sql.ColRef:
		ord, err := sc.resolve(t)
		if err != nil {
			return nil, err
		}
		return expr.NewColumn(ord, t.String()), nil
	case *sql.Literal:
		return expr.NewConst(t.Val), nil
	case *sql.Param:
		if sc.slots == nil {
			return nil, fmt.Errorf("plan: parameter %s outside a table's own predicates", t)
		}
		c := expr.NewConst(value.Value{Kind: t.Kind})
		sc.slots.add(t.Index, &c.Val)
		return c, nil
	case *sql.BinExpr:
		l, err := bindExpr(t.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(t.R, sc)
		if err != nil {
			return nil, err
		}
		op, err := binaryOp(t.Op)
		if err != nil {
			return nil, err
		}
		l, r = coerceComparison(op, l, r, sc)
		return expr.NewBinary(op, l, r), nil
	case *sql.NotExpr:
		inner, err := bindExpr(t.E, sc)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil
	case *sql.BetweenExpr:
		v, err := bindExpr(t.E, sc)
		if err != nil {
			return nil, err
		}
		lo, err := bindExpr(t.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := bindExpr(t.Hi, sc)
		if err != nil {
			return nil, err
		}
		_, lo = coercePair(v, lo, sc)
		_, hi = coercePair(v, hi, sc)
		b := &expr.Between{E: v, Lo: lo, Hi: hi}
		if t.Not {
			return &expr.Not{E: b}, nil
		}
		return b, nil
	case *sql.InExpr:
		v, err := bindExpr(t.E, sc)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(t.List))
		for i, item := range t.List {
			bi, err := bindExpr(item, sc)
			if err != nil {
				return nil, err
			}
			_, bi = coercePair(v, bi, sc)
			list[i] = bi
		}
		in := &expr.InList{E: v, List: list}
		if t.Not {
			return &expr.Not{E: in}, nil
		}
		return in, nil
	case *sql.IsNullExpr:
		v, err := bindExpr(t.E, sc)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: v, Negate: t.Not}, nil
	case *sql.FuncCall:
		if t.Name != "COALESCE" || len(t.Args) == 0 {
			return nil, fmt.Errorf("plan: aggregate or function %q not allowed in this context", t.Name)
		}
		args := make([]expr.Expr, len(t.Args))
		for i, a := range t.Args {
			var err error
			if args[i], err = bindExpr(a, sc); err != nil {
				return nil, err
			}
		}
		return &expr.Coalesce{Args: args}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

func binaryOp(op string) (expr.BinaryOp, error) {
	switch op {
	case "+":
		return expr.OpAdd, nil
	case "-":
		return expr.OpSub, nil
	case "*":
		return expr.OpMul, nil
	case "/":
		return expr.OpDiv, nil
	case "=":
		return expr.OpEq, nil
	case "<>", "!=":
		return expr.OpNe, nil
	case "<":
		return expr.OpLt, nil
	case "<=":
		return expr.OpLe, nil
	case ">":
		return expr.OpGt, nil
	case ">=":
		return expr.OpGe, nil
	case "AND":
		return expr.OpAnd, nil
	case "OR":
		return expr.OpOr, nil
	default:
		return 0, fmt.Errorf("plan: unsupported operator %q", op)
	}
}

// coerceComparison upgrades string literals compared against DATE columns to
// date constants, so `l_shipdate > '1995-06-01'` behaves like the DATE form.
func coerceComparison(op expr.BinaryOp, l, r expr.Expr, sc *scope) (expr.Expr, expr.Expr) {
	if !op.IsComparison() {
		return l, r
	}
	l2, r2 := coercePair(l, r, sc)
	r3, l3 := coercePair(r2, l2, sc)
	return l3, r3
}

// coercePair coerces the constant `c` to DATE when `col` is a DATE column and
// the constant is a parseable string. Returns possibly-updated (col, c).
func coercePair(col, c expr.Expr, sc *scope) (expr.Expr, expr.Expr) {
	colRef, okCol := col.(*expr.Column)
	constRef, okConst := c.(*expr.Const)
	if !okCol || !okConst {
		return col, c
	}
	if colRef.Index >= len(sc.cols) || sc.cols[colRef.Index].Kind != value.KindDate {
		return col, c
	}
	if constRef.Val.Kind != value.KindString {
		return col, c
	}
	if d, err := value.ParseDate(constRef.Val.S); err == nil {
		return col, expr.NewConst(d)
	}
	return col, c
}

// exprSources returns the set of source names (lower-cased aliases)
// referenced by an AST expression, resolving unqualified references through
// the provided per-source scopes. Unknown columns resolve to no source and
// are reported by later binding.
func exprSources(e sql.Expr, bySource map[string]*scope) map[string]bool {
	out := make(map[string]bool)
	collectSources(e, bySource, out)
	return out
}

func collectSources(e sql.Expr, bySource map[string]*scope, out map[string]bool) {
	switch t := e.(type) {
	case nil:
	case *sql.ColRef:
		if t.Table != "" {
			out[strings.ToLower(t.Table)] = true
			return
		}
		for name, sc := range bySource {
			if sc.has(t) {
				out[name] = true
			}
		}
	case *sql.Literal:
	case *sql.BinExpr:
		collectSources(t.L, bySource, out)
		collectSources(t.R, bySource, out)
	case *sql.NotExpr:
		collectSources(t.E, bySource, out)
	case *sql.BetweenExpr:
		collectSources(t.E, bySource, out)
		collectSources(t.Lo, bySource, out)
		collectSources(t.Hi, bySource, out)
	case *sql.InExpr:
		collectSources(t.E, bySource, out)
		for _, item := range t.List {
			collectSources(item, bySource, out)
		}
	case *sql.IsNullExpr:
		collectSources(t.E, bySource, out)
	case *sql.FuncCall:
		for _, a := range t.Args {
			collectSources(a, bySource, out)
		}
	}
}

// collectAggregates walks an expression and appends every aggregate function
// call found (in left-to-right order) to the accumulator.
func collectAggregates(e sql.Expr, acc *[]*sql.FuncCall) {
	switch t := e.(type) {
	case nil:
	case *sql.FuncCall:
		if t.IsAggregate() {
			*acc = append(*acc, t)
			return
		}
		for _, a := range t.Args {
			collectAggregates(a, acc)
		}
	case *sql.BinExpr:
		collectAggregates(t.L, acc)
		collectAggregates(t.R, acc)
	case *sql.NotExpr:
		collectAggregates(t.E, acc)
	case *sql.BetweenExpr:
		collectAggregates(t.E, acc)
		collectAggregates(t.Lo, acc)
		collectAggregates(t.Hi, acc)
	case *sql.InExpr:
		collectAggregates(t.E, acc)
		for _, item := range t.List {
			collectAggregates(item, acc)
		}
	case *sql.IsNullExpr:
		collectAggregates(t.E, acc)
	}
}
