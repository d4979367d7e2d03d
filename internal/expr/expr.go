// Package expr implements bound scalar expressions evaluated over rows.
// The SQL planner turns parsed expressions (which reference columns by name)
// into these bound forms (which reference columns by ordinal), so the
// executor never does name resolution on the hot path.
package expr

import (
	"fmt"
	"strings"

	"oldelephant/internal/value"
)

// Expr is a scalar expression evaluated against a row.
type Expr interface {
	// Eval computes the expression over the given row.
	Eval(row []value.Value) (value.Value, error)
	// String renders the expression for plan explanations.
	String() string
}

// Column references a column of the input row by ordinal.
type Column struct {
	Index int
	Name  string // for display only
}

// NewColumn returns a bound column reference.
func NewColumn(index int, name string) *Column { return &Column{Index: index, Name: name} }

// Eval implements Expr.
func (c *Column) Eval(row []value.Value) (value.Value, error) {
	if c.Index < 0 || c.Index >= len(row) {
		return value.Null(), fmt.Errorf("expr: column ordinal %d out of range (row has %d columns)", c.Index, len(row))
	}
	return row[c.Index], nil
}

// String implements Expr.
func (c *Column) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("#%d", c.Index)
}

// Const is a literal value.
type Const struct {
	Val value.Value
}

// NewConst returns a literal expression.
func NewConst(v value.Value) *Const { return &Const{Val: v} }

// Eval implements Expr.
func (c *Const) Eval([]value.Value) (value.Value, error) { return c.Val, nil }

// String implements Expr.
func (c *Const) String() string {
	if c.Val.Kind == value.KindString || c.Val.Kind == value.KindDate {
		return "'" + c.Val.String() + "'"
	}
	return c.Val.String()
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string { return opNames[op] }

// IsComparison reports whether the operator is a comparison predicate.
func (op BinaryOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// Binary applies a binary operator to two sub-expressions.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// NewBinary builds a binary expression.
func NewBinary(op BinaryOp, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// Eq builds l = r.
func Eq(l, r Expr) *Binary { return NewBinary(OpEq, l, r) }

// And combines predicates with AND, returning nil for an empty list.
func And(preds ...Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = NewBinary(OpAnd, out, p)
		}
	}
	return out
}

// Eval implements Expr.
func (b *Binary) Eval(row []value.Value) (value.Value, error) {
	l, err := b.L.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	// Short-circuit logical operators.
	switch b.Op {
	case OpAnd:
		if !l.IsNull() && !l.Bool() {
			return value.NewBool(false), nil
		}
	case OpOr:
		if !l.IsNull() && l.Bool() {
			return value.NewBool(true), nil
		}
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	switch b.Op {
	case OpAdd:
		return value.Add(l, r), nil
	case OpSub:
		return value.Sub(l, r), nil
	case OpMul:
		return value.Mul(l, r), nil
	case OpDiv:
		return value.Div(l, r), nil
	case OpAnd, OpOr:
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		if b.Op == OpAnd {
			return value.NewBool(l.Bool() && r.Bool()), nil
		}
		return value.NewBool(l.Bool() || r.Bool()), nil
	default:
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		cmp := value.Compare(l, r)
		switch b.Op {
		case OpEq:
			return value.NewBool(cmp == 0), nil
		case OpNe:
			return value.NewBool(cmp != 0), nil
		case OpLt:
			return value.NewBool(cmp < 0), nil
		case OpLe:
			return value.NewBool(cmp <= 0), nil
		case OpGt:
			return value.NewBool(cmp > 0), nil
		case OpGe:
			return value.NewBool(cmp >= 0), nil
		}
	}
	return value.Null(), fmt.Errorf("expr: unknown operator %d", b.Op)
}

// String implements Expr.
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// Eval implements Expr.
func (n *Not) Eval(row []value.Value) (value.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	if v.IsNull() {
		return value.Null(), nil
	}
	return value.NewBool(!v.Bool()), nil
}

// String implements Expr.
func (n *Not) String() string { return "NOT " + n.E.String() }

// Between is the inclusive range predicate e BETWEEN lo AND hi.
type Between struct {
	E, Lo, Hi Expr
}

// Eval implements Expr.
func (b *Between) Eval(row []value.Value) (value.Value, error) {
	v, err := b.E.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	lo, err := b.Lo.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	hi, err := b.Hi.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return value.Null(), nil
	}
	return value.NewBool(value.Compare(v, lo) >= 0 && value.Compare(v, hi) <= 0), nil
}

// String implements Expr.
func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.E, b.Lo, b.Hi)
}

// IsNull tests a value for SQL NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval implements Expr.
func (i *IsNull) Eval(row []value.Value) (value.Value, error) {
	v, err := i.E.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	return value.NewBool(v.IsNull() != i.Negate), nil
}

// String implements Expr.
func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// Coalesce is COALESCE(a, b, ...): the first of its arguments that is not
// NULL, and NULL when all are. It turns the NULL a SUM answers over no rows
// into the 0 a count over no rows means.
type Coalesce struct {
	Args []Expr
}

// Eval implements Expr.
func (c *Coalesce) Eval(row []value.Value) (value.Value, error) {
	for _, a := range c.Args {
		v, err := a.Eval(row)
		if err != nil || !v.IsNull() {
			return v, err
		}
	}
	return value.Null(), nil
}

// String implements Expr.
func (c *Coalesce) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("COALESCE(%s)", strings.Join(parts, ", "))
}

// InList is the predicate e IN (v1, v2, ...).
type InList struct {
	E    Expr
	List []Expr
}

// Eval implements Expr.
func (in *InList) Eval(row []value.Value) (value.Value, error) {
	v, err := in.E.Eval(row)
	if err != nil {
		return value.Null(), err
	}
	if v.IsNull() {
		return value.Null(), nil
	}
	for _, item := range in.List {
		iv, err := item.Eval(row)
		if err != nil {
			return value.Null(), err
		}
		if !iv.IsNull() && value.Compare(v, iv) == 0 {
			return value.NewBool(true), nil
		}
	}
	return value.NewBool(false), nil
}

// String implements Expr.
func (in *InList) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	return fmt.Sprintf("(%s IN (%s))", in.E, strings.Join(parts, ", "))
}

// SplitConjuncts flattens a predicate tree of ANDs into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// ColumnsUsed returns the set of column ordinals referenced by the expression.
func ColumnsUsed(e Expr) map[int]bool {
	out := make(map[int]bool)
	collectColumns(e, out)
	return out
}

func collectColumns(e Expr, out map[int]bool) {
	switch t := e.(type) {
	case nil:
	case *Column:
		out[t.Index] = true
	case *Const:
	case *Binary:
		collectColumns(t.L, out)
		collectColumns(t.R, out)
	case *Not:
		collectColumns(t.E, out)
	case *Between:
		collectColumns(t.E, out)
		collectColumns(t.Lo, out)
		collectColumns(t.Hi, out)
	case *IsNull:
		collectColumns(t.E, out)
	case *Coalesce:
		for _, a := range t.Args {
			collectColumns(a, out)
		}
	case *InList:
		collectColumns(t.E, out)
		for _, item := range t.List {
			collectColumns(item, out)
		}
	}
}

// Shift returns a copy of the expression with every column ordinal increased
// by delta. Used when rows of two operators are concatenated by joins.
func Shift(e Expr, delta int) Expr {
	switch t := e.(type) {
	case nil:
		return nil
	case *Column:
		return &Column{Index: t.Index + delta, Name: t.Name}
	case *Const:
		return t
	case *Binary:
		return &Binary{Op: t.Op, L: Shift(t.L, delta), R: Shift(t.R, delta)}
	case *Not:
		return &Not{E: Shift(t.E, delta)}
	case *Between:
		return &Between{E: Shift(t.E, delta), Lo: Shift(t.Lo, delta), Hi: Shift(t.Hi, delta)}
	case *IsNull:
		return &IsNull{E: Shift(t.E, delta), Negate: t.Negate}
	case *Coalesce:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = Shift(a, delta)
		}
		return &Coalesce{Args: args}
	case *InList:
		list := make([]Expr, len(t.List))
		for i, item := range t.List {
			list[i] = Shift(item, delta)
		}
		return &InList{E: Shift(t.E, delta), List: list}
	default:
		return e
	}
}

// EvalBool evaluates a predicate, treating NULL and errors-free non-boolean
// results with SQL semantics: only a true result passes.
func EvalBool(e Expr, row []value.Value) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}
