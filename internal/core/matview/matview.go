// Package matview implements the paper's Row(MV) strategy: materialized
// views that pre-aggregate the workload, together with view matching that
// answers queries whose constants (and grouping subsets) differ from the
// view definition — the generalization the paper applies to MV2,3 and MV7.
//
// A query matches a view when the view's source covers it (sql.Shape.Covers:
// the same base tables under the same joins, and a view that filters no
// rows), it filters only on the view's group-by columns, groups by a subset
// of them, and asks only for aggregates derivable from the view's aggregates
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
	q, err := sql.ShapeOf(stmt)
	if err != nil {
		return nil, false
	}
	var best *Match
	var bestRows int64
	for _, def := range m.Engine.Views() {
		rewritten, ok := rewriteAgainst(q, def)
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

// rewriteAgainst checks whether the query of shape q can be answered from
// the view and builds the rewritten statement if so.
func rewriteAgainst(q *sql.Shape, def *engine.ViewDef) (*sql.SelectStmt, bool) {
	src := def.Source
	if src.Covers(q) != nil || len(q.Residual) > 0 {
		return nil, false
	}
	// groupLabel names the view column that holds base group column c.
	groupLabel := func(c *sql.ColRef) (*sql.ColRef, bool) {
		label, ok := src.LabelOf(c.Column)
		return &sql.ColRef{Column: label}, ok && src.Groups(c.Column)
	}
	out := &sql.SelectStmt{From: []sql.TableRef{{Table: def.Table}}, Limit: q.Limit, Offset: q.Offset}
	// Filters must be on view group columns; GROUP BY a subset of them.
	var filters []sql.Expr
	for _, p := range q.Filters {
		label, ok := groupLabel(p.Col)
		if !ok {
			return nil, false
		}
		filters = append(filters, p.On(label))
	}
	out.Where = sql.AndAll(filters)
	for _, g := range q.GroupBy {
		label, ok := groupLabel(g)
		if !ok {
			return nil, false
		}
		out.GroupBy = append(out.GroupBy, label)
	}
	// Select items: group columns or derivable aggregates.
	aggLabel := make(map[string]string) // canonical aggregate -> view column label
	for i, a := range def.Aggregates {
		aggLabel[a] = def.AggColumns[i]
	}
	for _, item := range q.Items {
		var expr sql.Expr
		ok := false
		switch e := item.Expr.(type) {
		case *sql.ColRef:
			expr, ok = groupLabel(e)
		case *sql.FuncCall:
			expr, ok = deriveAggregate(e, aggLabel)
			if ok && e.Name == "COUNT" && len(q.GroupBy) == 0 {
				expr = sql.ZeroIfNull(expr) // a scalar count over no rows is 0
			}
		}
		if !ok {
			return nil, false
		}
		out.Select = append(out.Select, sql.SelectItem{Expr: expr, Alias: item.Label()})
	}
	for _, o := range q.OrderBy {
		label, ok := groupLabel(o.Col)
		if !ok {
			return nil, false
		}
		out.OrderBy = append(out.OrderBy, sql.OrderItem{Expr: label, Desc: o.Desc})
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
