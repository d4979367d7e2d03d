package sql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"oldelephant/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmtNode()
	String() string
}

// Expr is an unbound (name-based) scalar expression in the AST. The planner
// binds it against the query's FROM sources.
type Expr interface {
	exprNode()
	String() string
}

// ColRef references a column, optionally qualified by a table alias. Names
// render bare where the lexer reads them back so, double-quoted otherwise.
type ColRef struct {
	Table  string
	Column string
}

func (*ColRef) exprNode() {}

// String implements Expr.
func (c *ColRef) String() string {
	if c.Table != "" {
		return ident(c.Table) + "." + ident(c.Column)
	}
	return ident(c.Column)
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

func (*Literal) exprNode() {}

// String implements Expr.
func (l *Literal) String() string {
	switch l.Val.Kind {
	case value.KindString:
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	case value.KindDate:
		return "DATE '" + l.Val.String() + "'"
	case value.KindFloat:
		// Positional digits, which the lexer reads back (it reads no
		// exponent). An integral float keeps a decimal point, so it never
		// renders as the INT literal of the same digits: two statements that
		// differ in a literal's kind never print alike.
		s := strconv.FormatFloat(l.Val.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	default:
		return l.Val.String()
	}
}

// BinExpr is a binary operator application; Op is the SQL spelling
// ("+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR").
type BinExpr struct {
	Op   string
	L, R Expr
}

func (*BinExpr) exprNode() {}

// String implements Expr.
func (b *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// NotExpr negates a predicate.
type NotExpr struct {
	E Expr
}

func (*NotExpr) exprNode() {}

// String implements Expr.
func (n *NotExpr) String() string { return "NOT " + n.E.String() }

// BetweenExpr is e [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) exprNode() {}

// String implements Expr.
func (b *BetweenExpr) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", b.E, not, b.Lo, b.Hi)
}

// InExpr is e [NOT] IN (v1, v2, ...).
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

func (*InExpr) exprNode() {}

// String implements Expr.
func (in *InExpr) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	not := ""
	if in.Not {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", in.E, not, strings.Join(parts, ", "))
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*IsNullExpr) exprNode() {}

// String implements Expr.
func (i *IsNullExpr) String() string {
	if i.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// FuncCall is a function application. The aggregate functions COUNT, SUM,
// MIN, MAX and AVG are the supported ones; COUNT(*) sets Star.
type FuncCall struct {
	Name string // upper case
	Args []Expr
	Star bool
}

func (*FuncCall) exprNode() {}

// String implements Expr.
func (f *FuncCall) String() string {
	if f.Star {
		return ident(f.Name) + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return ident(f.Name) + "(" + strings.Join(parts, ", ") + ")"
}

// ZeroIfNull wraps e in COALESCE(e, 0). A rewriting that answers a scalar
// COUNT(*) with a SUM of stored counts needs it: a SUM over no rows is NULL,
// a count is 0.
func ZeroIfNull(e Expr) Expr {
	return &FuncCall{Name: "COALESCE", Args: []Expr{e, &Literal{Val: value.NewInt(0)}}}
}

// IsAggregate reports whether the function is one of the aggregate functions.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

// HasAggregate reports whether e holds an aggregate call.
func HasAggregate(e Expr) bool {
	switch t := e.(type) {
	case *FuncCall:
		return t.IsAggregate() || slices.ContainsFunc(t.Args, HasAggregate)
	case *BinExpr:
		return HasAggregate(t.L) || HasAggregate(t.R)
	case *NotExpr:
		return HasAggregate(t.E)
	case *BetweenExpr:
		return HasAggregate(t.E) || HasAggregate(t.Lo) || HasAggregate(t.Hi)
	case *InExpr:
		return HasAggregate(t.E) || slices.ContainsFunc(t.List, HasAggregate)
	case *IsNullExpr:
		return HasAggregate(t.E)
	}
	return false
}

// SelectItem is one item of the SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

// String renders the item.
func (s SelectItem) String() string {
	if s.Star {
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.String() + " AS " + ident(s.Alias)
	}
	return s.Expr.String()
}

// Label is the name of the item's result column: its alias, else the bare
// name of the column it selects, else its expression text. The planner names
// result columns by it, and view matching and the c-table rewriter alias what
// they rewrite by it, so every physical design answers with the same columns.
func (s SelectItem) Label() string {
	if s.Alias != "" {
		return s.Alias
	}
	if ref, ok := s.Expr.(*ColRef); ok {
		return ref.Column
	}
	return s.Expr.String()
}

// TableRef is one entry of the FROM clause: either a base table (possibly
// aliased) or a derived table (subquery with a mandatory alias).
type TableRef struct {
	Table    string
	Alias    string
	Subquery *SelectStmt
}

// String renders the reference.
func (t TableRef) String() string {
	if t.Subquery != nil {
		return "(" + t.Subquery.String() + ") " + ident(t.Alias)
	}
	if t.Alias != "" && !strings.EqualFold(t.Alias, t.Table) {
		return ident(t.Table) + " " + ident(t.Alias)
	}
	return ident(t.Table)
}

// Name returns the name the reference is known by in the query (alias if given).
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	Offset   int64
	Hints    []string // contents of OPTION(...), upper-cased, comma-separated items
}

func (*SelectStmt) stmtNode() {}

// String renders the statement back to SQL (normalized).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	items := make([]string, len(s.Select))
	for i, it := range s.Select {
		items[i] = it.String()
	}
	sb.WriteString(strings.Join(items, ", "))
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		froms := make([]string, len(s.From))
		for i, f := range s.From {
			froms[i] = f.String()
		}
		sb.WriteString(strings.Join(froms, ", "))
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.Expr.String()
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", s.Limit))
	}
	if s.Offset > 0 {
		sb.WriteString(fmt.Sprintf(" OFFSET %d", s.Offset))
	}
	if len(s.Hints) > 0 {
		sb.WriteString(" OPTION(" + strings.Join(s.Hints, ", ") + ")")
	}
	return sb.String()
}

// ColumnDef is one column of a CREATE TABLE statement.
type ColumnDef struct {
	Name string
	Type string // INT, BIGINT, FLOAT, DOUBLE, VARCHAR, TEXT, DATE, BOOL
}

// CreateTableStmt creates a table; PrimaryKey columns become the clustered key.
type CreateTableStmt struct {
	Name       string
	Columns    []ColumnDef
	PrimaryKey []string
}

func (*CreateTableStmt) stmtNode() {}

// String implements Statement.
func (c *CreateTableStmt) String() string {
	cols := make([]string, len(c.Columns))
	for i, col := range c.Columns {
		cols[i] = ident(col.Name) + " " + col.Type
	}
	s := "CREATE TABLE " + ident(c.Name) + " (" + strings.Join(cols, ", ")
	if len(c.PrimaryKey) > 0 {
		s += ", PRIMARY KEY (" + idents(c.PrimaryKey) + ")"
	}
	return s + ")"
}

// CreateIndexStmt creates a secondary (or clustered) index with optional
// INCLUDE columns, mirroring SQL Server's covering-index syntax.
type CreateIndexStmt struct {
	Name      string
	Table     string
	Columns   []string
	Include   []string
	Unique    bool
	Clustered bool
}

func (*CreateIndexStmt) stmtNode() {}

// String implements Statement.
func (c *CreateIndexStmt) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if c.Unique {
		sb.WriteString("UNIQUE ")
	}
	if c.Clustered {
		sb.WriteString("CLUSTERED ")
	}
	sb.WriteString("INDEX " + ident(c.Name) + " ON " + ident(c.Table) + " (" + idents(c.Columns) + ")")
	if len(c.Include) > 0 {
		sb.WriteString(" INCLUDE (" + idents(c.Include) + ")")
	}
	return sb.String()
}

// CreateViewStmt creates a (materialized) view defined by a SELECT.
type CreateViewStmt struct {
	Name         string
	Materialized bool
	Query        *SelectStmt
}

func (*CreateViewStmt) stmtNode() {}

// String implements Statement.
func (c *CreateViewStmt) String() string {
	kind := "VIEW"
	if c.Materialized {
		kind = "MATERIALIZED VIEW"
	}
	return "CREATE " + kind + " " + ident(c.Name) + " AS " + c.Query.String()
}

// InsertStmt inserts literal rows into a table.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

func (*InsertStmt) stmtNode() {}

// String implements Statement.
func (i *InsertStmt) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + ident(i.Table))
	if len(i.Columns) > 0 {
		sb.WriteString(" (" + idents(i.Columns) + ")")
	}
	sb.WriteString(" VALUES ")
	rows := make([]string, len(i.Rows))
	for r, row := range i.Rows {
		vals := make([]string, len(row))
		for c, v := range row {
			vals[c] = v.String()
		}
		rows[r] = "(" + strings.Join(vals, ", ") + ")"
	}
	sb.WriteString(strings.Join(rows, ", "))
	return sb.String()
}

// DropTableStmt drops a table.
type DropTableStmt struct {
	Name string
}

func (*DropTableStmt) stmtNode() {}

// String implements Statement.
func (d *DropTableStmt) String() string { return "DROP TABLE " + ident(d.Name) }

// ExplainStmt explains a SELECT: plan text only, or — with Analyze — the plan
// executed with tracing on, annotated with per-operator rows and wall time.
type ExplainStmt struct {
	Analyze bool
	Query   *SelectStmt
}

func (*ExplainStmt) stmtNode() {}

// String implements Statement.
func (e *ExplainStmt) String() string {
	if e.Analyze {
		return "EXPLAIN ANALYZE " + e.Query.String()
	}
	return "EXPLAIN " + e.Query.String()
}

// idents renders a list of names, comma-separated.
func idents(names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = ident(n)
	}
	return strings.Join(out, ", ")
}

// SplitConjuncts flattens an AND tree into its conjuncts, left to right; nil
// yields none.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinExpr); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll joins the non-nil predicates into a left-deep AND tree; none yields
// nil.
func AndAll(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = &BinExpr{Op: "AND", L: out, R: p}
		}
	}
	return out
}
