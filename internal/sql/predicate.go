package sql

// The predicate vocabulary that access-path choice, view matching and the
// c-table rewriter share: which WHERE conjuncts compare one column with
// constants, which of those keep a range of the column's values, and which
// join two columns by equality.

// ColumnPredicate is a conjunct that compares one column with constants,
// turned so that the column comes first.
type ColumnPredicate struct {
	Col *ColRef
	// Op is a comparison operator (=, <>, <, <=, >, >=), BETWEEN or IN.
	Op string
	// Not negates a BETWEEN or an IN.
	Not bool
	// Args are the constants: the one compared with, BETWEEN's bounds, or
	// IN's list.
	Args []Expr
}

// ColumnPredicateOf classifies a conjunct as a ColumnPredicate: `col op c`,
// `c op col` (turned around), `col [NOT] BETWEEN c1 AND c2` or
// `col [NOT] IN (c1, ...)`, where every c is a constant (IsConstant).
func ColumnPredicateOf(conjunct Expr) (ColumnPredicate, bool) {
	switch e := conjunct.(type) {
	case *BinExpr:
		if FlipOp(e.Op) == "" {
			break
		}
		if col, ok := e.L.(*ColRef); ok && IsConstant(e.R) {
			return ColumnPredicate{Col: col, Op: e.Op, Args: []Expr{e.R}}, true
		}
		if col, ok := e.R.(*ColRef); ok && IsConstant(e.L) {
			return ColumnPredicate{Col: col, Op: FlipOp(e.Op), Args: []Expr{e.L}}, true
		}
	case *BetweenExpr:
		if col, ok := e.E.(*ColRef); ok && IsConstant(e.Lo) && IsConstant(e.Hi) {
			return ColumnPredicate{Col: col, Op: "BETWEEN", Not: e.Not, Args: []Expr{e.Lo, e.Hi}}, true
		}
	case *InExpr:
		col, ok := e.E.(*ColRef)
		for _, item := range e.List {
			ok = ok && IsConstant(item)
		}
		if ok {
			return ColumnPredicate{Col: col, Op: "IN", Not: e.Not, Args: e.List}, true
		}
	}
	return ColumnPredicate{}, false
}

// IsRange reports whether the rows the predicate keeps are one interval of
// the column's order: =, <, <=, >, >= and BETWEEN are ranges; <>, IN and the
// negations are not.
func (p ColumnPredicate) IsRange() bool {
	return !p.Not && p.Op != "<>" && p.Op != "IN"
}

// On returns the predicate applied to e in place of its column.
func (p ColumnPredicate) On(e Expr) Expr {
	switch p.Op {
	case "BETWEEN":
		return &BetweenExpr{E: e, Lo: p.Args[0], Hi: p.Args[1], Not: p.Not}
	case "IN":
		return &InExpr{E: e, List: p.Args, Not: p.Not}
	}
	return &BinExpr{Op: p.Op, L: e, R: p.Args[0]}
}

// ColumnJoin returns the two columns of a column-equality conjunct `a = b`.
func ColumnJoin(conjunct Expr) (l, r *ColRef, ok bool) {
	b, isBin := conjunct.(*BinExpr)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	l, lok := b.L.(*ColRef)
	r, rok := b.R.(*ColRef)
	return l, r, lok && rok
}

// IsConstant reports whether e is a constant: a literal, a parameter slot,
// or arithmetic over constants.
func IsConstant(e Expr) bool {
	switch t := e.(type) {
	case *Literal, *Param:
		return true
	case *BinExpr:
		switch t.Op {
		case "+", "-", "*", "/":
			return IsConstant(t.L) && IsConstant(t.R)
		}
	}
	return false
}

// FlipOp returns the comparison that holds with its operands swapped (a < b
// is b > a), or "" when op is no comparison.
func FlipOp(op string) string {
	switch op {
	case "=", "<>":
		return op
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return ""
}
