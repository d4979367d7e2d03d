package sql

import (
	"strconv"

	"oldelephant/internal/value"
)

// Param is a parameter slot of a parameterized statement: it stands where
// Parameterize took a literal out, and Bind puts a literal back. Index
// numbers the slots from 0 in the order Parameterize met their literals;
// Kind is the kind of the literal the slot replaced.
type Param struct {
	Index int
	Kind  value.Kind
}

func (*Param) exprNode() {}

// String implements Expr: $1, $2, … (slots numbered from 1, as PostgreSQL
// numbers its parameters). The lexer reads no '$', so a rendered slot never
// reads as anything a statement text can hold.
func (p *Param) String() string { return "$" + strconv.Itoa(p.Index+1) }

// Parameterize takes literals out of a SELECT: each top-level WHERE
// conjunct `column = literal` or `literal = column` whose column and literal
// pick accepts has its literal replaced by the next parameter slot. It
// returns the parameterized statement, its shape, and the literals taken, in
// slot order; with none taken it returns nil, nil. stmt is not modified: the
// shape shares every node it does not replace. Bind(shape, args) renders
// exactly as stmt does.
func Parameterize(stmt *SelectStmt, pick func(col *ColRef, lit value.Value) bool) (*SelectStmt, []value.Value) {
	var args []value.Value
	where := mapEqualities(stmt.Where, func(col *ColRef, operand Expr) Expr {
		lit, ok := operand.(*Literal)
		if !ok || !pick(col, lit.Val) {
			return nil
		}
		args = append(args, lit.Val)
		return &Param{Index: len(args) - 1, Kind: lit.Val.Kind}
	})
	if len(args) == 0 {
		return nil, nil
	}
	shape := *stmt
	shape.Where = where
	return &shape, args
}

// Bind returns the statement shape was parameterized from when args are the
// literals Parameterize took: each parameter slot is replaced by a literal of
// args[slot]. shape is not modified, and the result shares every node of it
// that holds no slot.
func Bind(shape *SelectStmt, args []value.Value) *SelectStmt {
	stmt := *shape
	stmt.Where = mapEqualities(shape.Where, func(_ *ColRef, operand Expr) Expr {
		if p, ok := operand.(*Param); ok {
			return &Literal{Val: args[p.Index]}
		}
		return nil
	})
	return &stmt
}

// Equalities calls f with the column and the other operand of each top-level
// conjunct of where that equates a column to something else, left to right.
func Equalities(where Expr, f func(col *ColRef, operand Expr)) {
	mapEqualities(where, func(col *ColRef, operand Expr) Expr {
		f(col, operand)
		return nil
	})
}

// mapEqualities rebuilds the AND tree of where with the operand of each
// `column = operand` conjunct (either side) replaced by what f returns for
// it, or kept when f returns nil. Nodes with nothing replaced below them are
// returned as they are, so the AND tree keeps its shape and its sharing.
func mapEqualities(where Expr, f func(col *ColRef, operand Expr) Expr) Expr {
	b, ok := where.(*BinExpr)
	if !ok {
		return where
	}
	switch b.Op {
	case "AND":
		l, r := mapEqualities(b.L, f), mapEqualities(b.R, f)
		if l != b.L || r != b.R {
			return &BinExpr{Op: "AND", L: l, R: r}
		}
	case "=":
		if col, ok := b.L.(*ColRef); ok {
			if x := f(col, b.R); x != nil {
				return &BinExpr{Op: "=", L: b.L, R: x}
			}
		} else if col, ok := b.R.(*ColRef); ok {
			if x := f(col, b.L); x != nil {
				return &BinExpr{Op: "=", L: x, R: b.R}
			}
		}
	}
	return b
}
