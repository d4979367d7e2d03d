// Package rewrite implements the paper's mechanical query rewriting: a
// SELECT over base tables is translated into an equivalent SELECT over the
// c-tables of a ctable.Design (Section 2.2.2), including the two
// optimizations of Section 2.2.3 that the paper calls out:
//
//   - aggregation over compressed data: COUNT(*) becomes SUM of run lengths,
//     SUM(x) becomes SUM(v*c), MIN/MAX operate on run values directly;
//   - the range-collapse rewriting of Figure 4(b): when the filtered column
//     is the design's leading sort column, is not needed in the output and
//     every filter on it is a range (sql.ColumnPredicate.IsRange), its
//     qualifying runs are contiguous, so the band join can be driven by a
//     single (MIN(f), MAX(f+c-1)) pair computed in a derived table.
//
// The rewritten query labels its result columns as the original does
// (sql.SelectItem.Label), so both answer with the same columns.
//
// The rewriter is purely syntactic (AST to AST); the row-store planner then
// turns the band joins into index-nested-loop plans on the c-tables'
// clustered f indexes and covering v indexes.
package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"oldelephant/internal/core/ctable"
	"oldelephant/internal/sql"
	"oldelephant/internal/value"
)

// Rewriter rewrites queries against one c-table design.
type Rewriter struct {
	Design *ctable.Design
}

// New returns a rewriter over the given design.
func New(d *ctable.Design) *Rewriter { return &Rewriter{Design: d} }

// RewriteSQL parses a SELECT statement, rewrites it and renders it back to SQL.
func (r *Rewriter) RewriteSQL(query string) (string, error) {
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		return "", err
	}
	out, err := r.Rewrite(stmt)
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

// refInfo tracks one referenced source column and its c-table alias.
type refInfo struct {
	column string
	table  ctable.ColumnTable
	alias  string
	// filters are the predicate conjuncts on this column.
	filters []sql.ColumnPredicate
	// collapsed marks the column as replaced by the range-collapse derived table.
	collapsed bool
	inOutput  bool
}

// Rewrite translates a base-table query into a c-table query. It refuses a
// query the design's source does not cover (sql.Shape.Covers).
func (r *Rewriter) Rewrite(stmt *sql.SelectStmt) (*sql.SelectStmt, error) {
	q, err := sql.ShapeOf(stmt)
	if err != nil {
		return nil, fmt.Errorf("rewrite: %w", err)
	}
	if err := r.Design.Source.Covers(q); err != nil {
		return nil, fmt.Errorf("rewrite: design %q: %w", r.Design.Name, err)
	}
	if len(q.Residual) > 0 {
		return nil, fmt.Errorf("rewrite: unsupported predicate %q", q.Residual[0].String())
	}

	refs := make(map[string]*refInfo) // keyed by lower-case column name
	touch := func(col string) (*refInfo, error) {
		key := strings.ToLower(col)
		if ri, ok := refs[key]; ok {
			return ri, nil
		}
		ct, ok := r.Design.Column(col)
		if !ok {
			return nil, fmt.Errorf("rewrite: design %q does not encode column %q", r.Design.Name, col)
		}
		ri := &refInfo{column: ct.Column, table: ct}
		refs[key] = ri
		return ri, nil
	}

	// Column predicates become predicates on the column's c-table values; the
	// joins are the design's own.
	for _, p := range q.Filters {
		ri, err := touch(p.Col.Column)
		if err != nil {
			return nil, err
		}
		ri.filters = append(ri.filters, p)
	}
	// Group-by columns and the columns the select items read ("" for
	// COUNT(*)) are in the output.
	itemCols := make([]string, len(q.Items))
	outCols := make([]string, 0, len(q.GroupBy)+len(q.Items))
	for _, g := range q.GroupBy {
		outCols = append(outCols, g.Column)
	}
	for i, item := range q.Items {
		c, err := itemColumn(item)
		if err != nil {
			return nil, err
		}
		itemCols[i] = c
		outCols = append(outCols, c)
	}
	for _, c := range outCols {
		if c == "" {
			continue
		}
		ri, err := touch(c)
		if err != nil {
			return nil, err
		}
		ri.inOutput = true
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("rewrite: query references no encodable columns")
	}

	// Order referenced columns by design depth and assign aliases T0, T1, ...
	ordered := make([]*refInfo, 0, len(refs))
	for _, ri := range refs {
		ordered = append(ordered, ri)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].table.Depth < ordered[j].table.Depth })
	for i, ri := range ordered {
		ri.alias = fmt.Sprintf("T%d", i)
	}

	// Range-collapse optimization: the shallowest referenced column is the
	// design's leading column, it is filtered by ranges only, and it is not
	// in the output. A filter such as IN or <> keeps runs that are not
	// contiguous, so one MIN(f)..MAX(f+c-1) span would take the runs between.
	lead := ordered[0]
	collapse := len(ordered) > 1 &&
		len(lead.filters) > 0 && !lead.inOutput &&
		strings.EqualFold(lead.table.Column, r.Design.Columns[0].Column)
	for _, f := range lead.filters {
		collapse = collapse && f.IsRange()
	}
	lead.collapsed = collapse

	out := &sql.SelectStmt{Limit: q.Limit, Offset: q.Offset}

	var where []sql.Expr
	// FROM clause and band-join chain.
	if collapse {
		sub := r.collapseSubquery(lead)
		out.From = append(out.From, sql.TableRef{Subquery: sub, Alias: lead.alias + "Agg"})
		// The first non-collapsed table joins to the collapsed range.
		next := ordered[1]
		out.From = append(out.From, sql.TableRef{Table: next.table.Table, Alias: next.alias})
		where = append(where, &sql.BetweenExpr{
			E:  col(next.alias, "f"),
			Lo: col(lead.alias+"Agg", "xmin"),
			Hi: col(lead.alias+"Agg", "xmax"),
		})
		for i := 2; i < len(ordered); i++ {
			out.From = append(out.From, sql.TableRef{Table: ordered[i].table.Table, Alias: ordered[i].alias})
			where = append(where, bandJoin(ordered[i-1], ordered[i]))
		}
	} else {
		for i, ri := range ordered {
			out.From = append(out.From, sql.TableRef{Table: ri.table.Table, Alias: ri.alias})
			if i > 0 {
				where = append(where, bandJoin(ordered[i-1], ri))
			}
		}
	}
	// Filters on non-collapsed columns.
	for _, ri := range ordered {
		if ri.collapsed {
			continue
		}
		for _, f := range ri.filters {
			where = append(where, f.On(col(ri.alias, "v")))
		}
	}
	out.Where = sql.AndAll(where)

	// Deepest referenced table drives run-length aggregation.
	deepest := ordered[len(ordered)-1]

	// SELECT list.
	aliasOf := func(colName string) string {
		return refs[strings.ToLower(colName)].alias
	}
	for i, item := range q.Items {
		c := itemCols[i]
		var e sql.Expr
		switch fc, _ := item.Expr.(*sql.FuncCall); {
		case fc == nil:
			e = col(aliasOf(c), "v")
		case fc.Name == "COUNT":
			e = countExpr(deepest)
			if len(q.GroupBy) == 0 && !deepest.table.Dense {
				e = sql.ZeroIfNull(e) // a scalar count over no rows is 0
			}
		case fc.Name == "SUM":
			e = sumExpr(aliasOf(c), deepest)
		case fc.Name == "AVG":
			e = &sql.BinExpr{Op: "/", L: sumExpr(aliasOf(c), deepest), R: countExpr(deepest)}
		default: // MIN, MAX
			e = &sql.FuncCall{Name: fc.Name, Args: []sql.Expr{col(aliasOf(c), "v")}}
		}
		out.Select = append(out.Select, sql.SelectItem{Expr: e, Alias: item.Label()})
	}

	// GROUP BY and ORDER BY.
	for _, g := range q.GroupBy {
		out.GroupBy = append(out.GroupBy, col(aliasOf(g.Column), "v"))
	}
	for _, o := range q.OrderBy {
		// Order by the output label, which the rewriting preserves.
		label, ok := q.LabelOf(o.Col.Column)
		if !ok {
			label = o.Col.Column
		}
		out.OrderBy = append(out.OrderBy, sql.OrderItem{Expr: &sql.ColRef{Column: label}, Desc: o.Desc})
	}
	return out, nil
}

// itemColumn returns the source column a select item reads: the column it
// selects, or its aggregate's one column argument ("" for COUNT(*)).
func itemColumn(item sql.SelectItem) (string, error) {
	if item.Star {
		return "", fmt.Errorf("rewrite: SELECT * is not supported")
	}
	switch e := item.Expr.(type) {
	case *sql.ColRef:
		return e.Column, nil
	case *sql.FuncCall:
		switch {
		case !e.IsAggregate():
			return "", fmt.Errorf("rewrite: unsupported function %q", e.Name)
		case e.Star:
			return "", nil
		case len(e.Args) != 1:
			return "", fmt.Errorf("rewrite: aggregate %s expects one argument", e.Name)
		}
		if ref, ok := e.Args[0].(*sql.ColRef); ok {
			return ref.Column, nil
		}
		return "", fmt.Errorf("rewrite: aggregate arguments must be plain columns, got %q", e.Args[0].String())
	}
	return "", fmt.Errorf("rewrite: unsupported select item %q", item.Expr.String())
}

// collapseSubquery builds the Figure 4(b) derived table for the leading,
// filtered, non-output column: SELECT MIN(f) AS xmin, MAX(f+c-1) AS xmax ...
func (r *Rewriter) collapseSubquery(lead *refInfo) *sql.SelectStmt {
	var hiExpr sql.Expr = col("", "f")
	if !lead.table.Dense {
		hiExpr = &sql.BinExpr{Op: "-",
			L: &sql.BinExpr{Op: "+", L: col("", "f"), R: col("", "c")},
			R: &sql.Literal{Val: intLit(1)}}
	}
	sub := &sql.SelectStmt{
		Limit: -1,
		Select: []sql.SelectItem{
			{Expr: &sql.FuncCall{Name: "MIN", Args: []sql.Expr{col("", "f")}}, Alias: "xmin"},
			{Expr: &sql.FuncCall{Name: "MAX", Args: []sql.Expr{hiExpr}}, Alias: "xmax"},
		},
		From: []sql.TableRef{{Table: lead.table.Table}},
	}
	var preds []sql.Expr
	for _, f := range lead.filters {
		preds = append(preds, f.On(col("", "v")))
	}
	sub.Where = sql.AndAll(preds)
	return sub
}

// bandJoin builds deeper.f BETWEEN shallower.f AND shallower.f + shallower.c - 1
// (or an equality when the shallower table is dense, i.e. every run has length 1).
func bandJoin(shallower, deeper *refInfo) sql.Expr {
	if shallower.table.Dense {
		return &sql.BinExpr{Op: "=", L: col(deeper.alias, "f"), R: col(shallower.alias, "f")}
	}
	return &sql.BetweenExpr{
		E:  col(deeper.alias, "f"),
		Lo: col(shallower.alias, "f"),
		Hi: &sql.BinExpr{Op: "-",
			L: &sql.BinExpr{Op: "+", L: col(shallower.alias, "f"), R: col(shallower.alias, "c")},
			R: &sql.Literal{Val: intLit(1)}},
	}
}

// countExpr implements COUNT(*) over the band-join result: the sum of the
// deepest table's run lengths (or a plain COUNT(*) when that table is dense).
func countExpr(deepest *refInfo) sql.Expr {
	if deepest.table.Dense {
		return &sql.FuncCall{Name: "COUNT", Star: true}
	}
	return &sql.FuncCall{Name: "SUM", Args: []sql.Expr{col(deepest.alias, "c")}}
}

// sumExpr implements SUM(x): the run value of x's c-table weighted by the run
// length of the deepest referenced table.
func sumExpr(argAlias string, deepest *refInfo) sql.Expr {
	if deepest.table.Dense {
		return &sql.FuncCall{Name: "SUM", Args: []sql.Expr{col(argAlias, "v")}}
	}
	return &sql.FuncCall{Name: "SUM", Args: []sql.Expr{
		&sql.BinExpr{Op: "*", L: col(argAlias, "v"), R: col(deepest.alias, "c")},
	}}
}

// col builds a (possibly qualified) column reference.
func col(table, name string) *sql.ColRef { return &sql.ColRef{Table: table, Column: name} }

func intLit(i int64) value.Value { return value.NewInt(i) }
