package sql

import (
	"fmt"
	"slices"
	"strings"
)

// Shape is a single-block SELECT decomposed the way a physical design reads
// it: the base tables it joins and the joins, the rows it keeps, how it
// groups them and what it returns. View matching and the c-table rewriter
// hold a query's shape against their design's source shape (Covers) and
// build what they run from it.
type Shape struct {
	// Tables are the FROM list's base tables, lower case and sorted: a
	// multiset.
	Tables []string
	// Joins are the column-equality conjuncts (ColumnJoin), each as "a=b"
	// over its lower-case column names, the lesser first; sorted, each once.
	Joins []string
	// Filters are the conjuncts that compare one column with constants
	// (ColumnPredicateOf), in WHERE order.
	Filters []ColumnPredicate
	// Residual are the other WHERE conjuncts, in order.
	Residual []Expr
	GroupBy  []*ColRef
	// Items are the SELECT list; each answers under its Label.
	Items         []SelectItem
	OrderBy       []ColumnOrder
	Limit, Offset int64
}

// ColumnOrder is one ORDER BY column.
type ColumnOrder struct {
	Col  *ColRef
	Desc bool
}

// ShapeOf decomposes a SELECT into its Shape. It refuses what no design
// serves: DISTINCT, HAVING, a derived table, and a GROUP BY or ORDER BY term
// that is no column.
func ShapeOf(s *SelectStmt) (*Shape, error) {
	if s.Distinct {
		return nil, fmt.Errorf("sql: no design serves DISTINCT")
	}
	if s.Having != nil {
		return nil, fmt.Errorf("sql: no design serves HAVING")
	}
	sh := &Shape{Items: s.Select, Limit: s.Limit, Offset: s.Offset}
	for _, t := range s.From {
		if t.Subquery != nil {
			return nil, fmt.Errorf("sql: no design serves a derived table")
		}
		sh.Tables = append(sh.Tables, strings.ToLower(t.Table))
	}
	slices.Sort(sh.Tables)
	for _, c := range SplitConjuncts(s.Where) {
		if l, r, ok := ColumnJoin(c); ok {
			a, b := strings.ToLower(l.Column), strings.ToLower(r.Column)
			sh.Joins = append(sh.Joins, min(a, b)+"="+max(a, b))
		} else if p, ok := ColumnPredicateOf(c); ok {
			sh.Filters = append(sh.Filters, p)
		} else {
			sh.Residual = append(sh.Residual, c)
		}
	}
	slices.Sort(sh.Joins)
	sh.Joins = slices.Compact(sh.Joins)
	for _, g := range s.GroupBy {
		ref, ok := g.(*ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: GROUP BY %s is no column", g)
		}
		sh.GroupBy = append(sh.GroupBy, ref)
	}
	for _, o := range s.OrderBy {
		ref, ok := o.Expr.(*ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: ORDER BY %s is no column", o.Expr)
		}
		sh.OrderBy = append(sh.OrderBy, ColumnOrder{Col: ref, Desc: o.Desc})
	}
	return sh, nil
}

// SameSource reports whether s and o read the same multiset of base tables
// under the same column-equality joins.
func (s *Shape) SameSource(o *Shape) bool {
	return slices.Equal(s.Tables, o.Tables) && slices.Equal(s.Joins, o.Joins)
}

// Covers returns nil when a design whose source has shape s holds every row
// the query of shape q reads: both read the same tables under the same joins
// (SameSource), and s keeps every row of that join, with no filter, LIMIT or
// OFFSET. Otherwise it names the mismatch; a nil s covers nothing.
func (s *Shape) Covers(q *Shape) error {
	if s == nil {
		return fmt.Errorf("source mismatch: the design has no source shape")
	}
	if !s.SameSource(q) {
		return fmt.Errorf("source mismatch: the query reads %s, the design's source %s", q.source(), s.source())
	}
	if len(s.Filters) > 0 || len(s.Residual) > 0 || s.Limit >= 0 || s.Offset > 0 {
		return fmt.Errorf("source mismatch: the design's source keeps only some rows of %s", s.source())
	}
	return nil
}

func (s *Shape) source() string {
	return "[" + strings.Join(s.Tables, ", ") + "] joined on [" + strings.Join(s.Joins, ", ") + "]"
}

// Groups reports whether col is a GROUP BY column.
func (s *Shape) Groups(col string) bool {
	return slices.ContainsFunc(s.GroupBy, func(g *ColRef) bool { return strings.EqualFold(g.Column, col) })
}

// LabelOf returns the label of the first item that selects column col bare.
func (s *Shape) LabelOf(col string) (string, bool) {
	for _, item := range s.Items {
		if ref, ok := item.Expr.(*ColRef); ok && strings.EqualFold(ref.Column, col) {
			return item.Label(), true
		}
	}
	return "", false
}
