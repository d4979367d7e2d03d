// Package matview implements the paper's Row(MV) strategy: materialized
// views that pre-aggregate the workload, together with view matching that
// answers queries whose constants (and grouping subsets) differ from the
// view definition — the generalization the paper applies to MV2,3 and MV7.
//
// A query matches a view when it aggregates the same join of base tables,
// filters only on the view's group-by columns, groups by a subset of them,
// and asks only for aggregates derivable from the view's aggregates
// (COUNT(*) from SUM of partial counts, SUM from SUM, MIN/MAX from MIN/MAX).
// The rewritten query then runs against the (clustered, much smaller) view
// table instead of the base tables.
package matview

import (
	"fmt"
	"strings"

	"oldelephant/internal/engine"
	"oldelephant/internal/sql"
)

// Manager creates materialized views and rewrites queries to use them.
type Manager struct {
	Engine *engine.Engine
}

// NewManager returns a manager over the engine.
func NewManager(e *engine.Engine) *Manager { return &Manager{Engine: e} }

// Create defines and populates a materialized view from its defining SQL
// (CREATE MATERIALIZED VIEW name AS ... is also accepted directly by the engine).
func (m *Manager) Create(name, defSQL string) error {
	stmt, err := sql.ParseSelect(defSQL)
	if err != nil {
		return err
	}
	_, err = m.Engine.ExecuteStmt(&sql.CreateViewStmt{Name: name, Materialized: true, Query: stmt})
	return err
}

// Refresh recomputes a materialized view from scratch (drop and recreate).
// The paper relies on the engine maintaining views automatically; a full
// recompute is the simplest correct stand-in for bulk-loaded experiments.
func (m *Manager) Refresh(name string) error {
	def, ok := m.Engine.View(name)
	if !ok {
		return fmt.Errorf("matview: view %q does not exist", name)
	}
	if _, err := m.Engine.ExecuteStmt(&sql.DropTableStmt{Name: def.Table}); err != nil {
		return err
	}
	_, err := m.Engine.ExecuteStmt(&sql.CreateViewStmt{Name: def.Name, Materialized: true, Query: def.Query})
	return err
}

// Match holds the outcome of view matching for a query.
type Match struct {
	View      *engine.ViewDef
	Rewritten *sql.SelectStmt
}

// TryRewrite attempts to answer the query from one of the engine's
// materialized views. When several views match, the one with the fewest
// materialized rows wins (it is the cheapest to read). It returns the
// rewritten statement and the matched view, or ok=false when no view applies.
func (m *Manager) TryRewrite(stmt *sql.SelectStmt) (*Match, bool) {
	var best *Match
	var bestRows int64
	for _, def := range m.Engine.Views() {
		rewritten, ok := m.rewriteAgainst(stmt, def)
		if !ok {
			continue
		}
		rows := int64(1 << 62)
		if tbl, err := m.Engine.Catalog().Table(def.Table); err == nil {
			rows = tbl.RowCount()
		}
		if best == nil || rows < bestRows {
			best = &Match{View: def, Rewritten: rewritten}
			bestRows = rows
		}
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

// Query answers a SELECT, using a materialized view when one matches and
// falling back to the base tables otherwise. The boolean reports whether a
// view was used.
func (m *Manager) Query(query string) (*engine.Result, bool, error) {
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		return nil, false, err
	}
	if match, ok := m.TryRewrite(stmt); ok {
		res, err := m.Engine.QueryStmt(match.Rewritten)
		return res, true, err
	}
	res, err := m.Engine.QueryStmt(stmt)
	return res, false, err
}

// RewriteSQL returns the SQL the query would be rewritten to, for inspection.
func (m *Manager) RewriteSQL(query string) (string, bool, error) {
	stmt, err := sql.ParseSelect(query)
	if err != nil {
		return "", false, err
	}
	match, ok := m.TryRewrite(stmt)
	if !ok {
		return "", false, nil
	}
	return match.Rewritten.String(), true, nil
}

// rewriteAgainst checks whether the query can be answered from the view and
// builds the rewritten statement if so.
func (m *Manager) rewriteAgainst(stmt *sql.SelectStmt, def *engine.ViewDef) (*sql.SelectStmt, bool) {
	if stmt.Distinct || stmt.Having != nil || len(stmt.From) == 0 {
		return nil, false
	}
	// Same set of base tables.
	if !sameTables(stmt.From, def.Query.From) {
		return nil, false
	}
	// The query's join predicates must be among the view's; its filter
	// predicates must be on view group-by columns.
	viewJoins := joinSet(def.Query.Where)
	// Map base group-by columns to their output labels in the view table: the
	// label is the select-item alias (or the bare column name) of the item
	// that exposes the group column.
	groupBySet := make(map[string]bool)
	for _, g := range def.Query.GroupBy {
		if ref, ok := g.(*sql.ColRef); ok {
			groupBySet[strings.ToLower(ref.Column)] = true
		}
	}
	groupCols := make(map[string]string) // base column name -> view output label
	for _, item := range def.Query.Select {
		if ref, ok := item.Expr.(*sql.ColRef); ok && groupBySet[strings.ToLower(ref.Column)] {
			groupCols[strings.ToLower(ref.Column)] = item.Label()
		}
	}
	// A filter is a column predicate (sql.ColumnPredicateOf) on a group
	// column; any other conjunct falls back to the base tables.
	var filters []sql.Expr
	for _, c := range sql.SplitConjuncts(stmt.Where) {
		if l, r, ok := sql.ColumnJoin(c); ok {
			if !viewJoins[canonicalJoin(l, r)] {
				return nil, false
			}
			continue
		}
		p, ok := sql.ColumnPredicateOf(c)
		if !ok {
			return nil, false
		}
		label, ok := groupCols[strings.ToLower(p.Col.Column)]
		if !ok {
			return nil, false
		}
		filters = append(filters, p.On(&sql.ColRef{Column: label}))
	}
	// The view itself may filter rows (e.g. MV defined with a WHERE); if it
	// does, require the query to carry the same predicates, otherwise the
	// view could be missing rows. Views in this reproduction are unfiltered,
	// so any non-join conjunct in the view definition blocks matching.
	for _, c := range sql.SplitConjuncts(def.Query.Where) {
		if _, _, ok := sql.ColumnJoin(c); !ok {
			return nil, false
		}
	}
	// GROUP BY subset of the view's group columns.
	var outGroup []string
	for _, g := range stmt.GroupBy {
		ref, ok := g.(*sql.ColRef)
		if !ok {
			return nil, false
		}
		label, ok := groupCols[strings.ToLower(ref.Column)]
		if !ok {
			return nil, false
		}
		outGroup = append(outGroup, label)
	}
	// Select items: group columns or derivable aggregates.
	aggLabel := make(map[string]string) // canonical aggregate -> view column label
	for i, a := range def.Aggregates {
		aggLabel[a] = def.AggColumns[i]
	}
	var items []sql.SelectItem
	for _, item := range stmt.Select {
		if item.Star {
			return nil, false
		}
		switch e := item.Expr.(type) {
		case *sql.ColRef:
			label, ok := groupCols[strings.ToLower(e.Column)]
			if !ok {
				return nil, false
			}
			items = append(items, sql.SelectItem{Expr: &sql.ColRef{Column: label}, Alias: item.Label()})
		case *sql.FuncCall:
			if !e.IsAggregate() {
				return nil, false
			}
			derived, ok := deriveAggregate(e, aggLabel)
			if !ok {
				return nil, false
			}
			items = append(items, sql.SelectItem{Expr: derived, Alias: item.Label()})
		default:
			return nil, false
		}
	}
	out := &sql.SelectStmt{
		Select: items,
		From:   []sql.TableRef{{Table: def.Table}},
		Where:  sql.AndAll(filters),
		Limit:  stmt.Limit,
		Offset: stmt.Offset,
	}
	for _, g := range outGroup {
		out.GroupBy = append(out.GroupBy, &sql.ColRef{Column: g})
	}
	for _, o := range stmt.OrderBy {
		ref, ok := o.Expr.(*sql.ColRef)
		if !ok {
			return nil, false
		}
		label, ok := groupCols[strings.ToLower(ref.Column)]
		if !ok {
			return nil, false
		}
		out.OrderBy = append(out.OrderBy, sql.OrderItem{Expr: &sql.ColRef{Column: label}, Desc: o.Desc})
	}
	return out, true
}

// deriveAggregate maps a query aggregate onto the view's stored aggregates:
// COUNT(*) -> SUM(count column); SUM(x) -> SUM(sum column); MIN/MAX(x) ->
// MIN/MAX of the stored MIN/MAX column; AVG(x) -> SUM(sum)/SUM(count).
func deriveAggregate(fc *sql.FuncCall, aggLabel map[string]string) (sql.Expr, bool) {
	canon := strings.ToUpper(fc.String())
	switch fc.Name {
	case "COUNT":
		if label, ok := aggLabel["COUNT(*)"]; ok {
			return &sql.FuncCall{Name: "SUM", Args: []sql.Expr{&sql.ColRef{Column: label}}}, true
		}
		return nil, false
	case "SUM":
		if label, ok := aggLabel[canon]; ok {
			return &sql.FuncCall{Name: "SUM", Args: []sql.Expr{&sql.ColRef{Column: label}}}, true
		}
		return nil, false
	case "MIN", "MAX":
		if label, ok := aggLabel[canon]; ok {
			return &sql.FuncCall{Name: fc.Name, Args: []sql.Expr{&sql.ColRef{Column: label}}}, true
		}
		return nil, false
	case "AVG":
		if len(fc.Args) != 1 {
			return nil, false
		}
		sumCanon := "SUM(" + strings.ToUpper(fc.Args[0].String()) + ")"
		sumLabel, okSum := aggLabel[sumCanon]
		cntLabel, okCnt := aggLabel["COUNT(*)"]
		if !okSum || !okCnt {
			return nil, false
		}
		return &sql.BinExpr{Op: "/",
			L: &sql.FuncCall{Name: "SUM", Args: []sql.Expr{&sql.ColRef{Column: sumLabel}}},
			R: &sql.FuncCall{Name: "SUM", Args: []sql.Expr{&sql.ColRef{Column: cntLabel}}},
		}, true
	default:
		return nil, false
	}
}

// sameTables compares the multisets of base table names in two FROM lists.
func sameTables(a, b []sql.TableRef) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int)
	for _, t := range a {
		if t.Subquery != nil {
			return false
		}
		count[strings.ToLower(t.Table)]++
	}
	for _, t := range b {
		if t.Subquery != nil {
			return false
		}
		count[strings.ToLower(t.Table)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// joinSet collects the canonical forms of column-equality conjuncts.
func joinSet(where sql.Expr) map[string]bool {
	out := make(map[string]bool)
	for _, c := range sql.SplitConjuncts(where) {
		if l, r, ok := sql.ColumnJoin(c); ok {
			out[canonicalJoin(l, r)] = true
		}
	}
	return out
}

// canonicalJoin renders a column-equality conjunct order-insensitively.
func canonicalJoin(a, b *sql.ColRef) string {
	l, r := strings.ToLower(a.Column), strings.ToLower(b.Column)
	if l > r {
		l, r = r, l
	}
	return l + "=" + r
}
