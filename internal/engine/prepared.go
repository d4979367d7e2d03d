package engine

import (
	"slices"
	"strings"
	"sync"
	"weak"

	"oldelephant/internal/catalog"
	"oldelephant/internal/sql"
	"oldelephant/internal/value"
)

// Prepared is a SELECT parsed and normalized once, executable many times.
// The handle is immutable, so one handle serves every session that prepares
// the same text: Engine.Prepare interns handles by exact statement text, the
// way a shared SQL area lets every session reuse one parse of a statement.
//
// A point lookup goes one step further, as SQL Server's simple
// parameterization does: a SELECT from one table whose WHERE is nothing but
// `column = literal` conjuncts, which pin every column of a unique key (the
// clustered key or a unique index) with literals of the columns' kinds. Its
// key literals become parameter slots, and the parameterized statement,
// its shape, is interned engine-wide: every handle of one shape shares one
// parse tree, one normalized text and one plan-cache entry, and keeps only
// its text and its literal values (and its parse tree, in the rare case
// that its labels are spelled otherwise than the shape's). So N point
// lookups that differ only in their key hold one parse tree and one cache
// entry, not N. Any other handle keeps its parse tree and its normalized
// text, which is its plan-cache key.
//
// Compiled plans are leased per execution through the shared plan cache
// (a shape's lease binds the handle's values into the leased instance), so
// repeated executions skip lexing, parsing, planning and morsel partitioning.
type Prepared struct {
	// Text is the original statement text.
	Text string
	norm string // the plan-cache key of a handle without a shape
	// A handle holds its own parse tree, or a shape and its slots' values;
	// a handle of a shape keeps its parse tree too where its labels differ
	// from the shape's, to answer under them.
	stmt  *sql.SelectStmt
	shape *shape
	args  []value.Value
}

// shape is a point lookup with its key literals taken out
// (sql.Parameterize): one parse tree, its normalized text and the kinds of
// its slots, which with the worker count key its plans in the plan cache.
type shape struct {
	text  string // sql.Normalize of the parameterized statement's rendering
	kinds string // each slot's value.Kind, one byte per slot
	stmt  *sql.SelectStmt
	// perText is set while the catalog no longer gives the shape's slots a
	// unique key of their kinds (a DDL dropped or changed it): its handles
	// then run as the texts they were prepared from. invalidatePlans sets it
	// under the engine's writer lock; executions read it under the reader
	// lock.
	perText bool
}

func newShape(stmt *sql.SelectStmt, args []value.Value) *shape {
	kinds := make([]byte, len(args))
	for i, v := range args {
		kinds[i] = byte(v.Kind)
	}
	return &shape{text: sql.Normalize(stmt.String()), kinds: string(kinds), stmt: stmt}
}

// Prepare parses a SELECT into a reusable handle. While any handle prepared
// from the same text is still referenced, Prepare returns that handle instead
// of parsing again, so N sessions preparing the same statements hold one
// parse tree and one normalized text per statement, not N — and one parse
// tree per shape for point lookups.
func (e *Engine) Prepare(sqlText string) (*Prepared, error) {
	if p := e.prepared.lookup(sqlText); p != nil {
		return p, nil
	}
	stmt, err := sql.ParseSelect(sqlText)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Text: sqlText, stmt: stmt}
	e.stateMu.RLock()
	if shaped, args := e.parameterize(stmt); shaped != nil {
		sh := newShape(shaped, args)
		// No slot is NULL (KindNull is 0), so the first NUL ends the kinds.
		p.shape, p.args = e.shapes.intern(sh.kinds+"\x00"+sh.text, sh), args
		if slices.EqualFunc(stmt.Select, p.shape.stmt.Select, sameLabel) {
			p.stmt = nil
		}
	} else {
		p.norm = sql.Normalize(sqlText)
	}
	e.stateMu.RUnlock()
	return e.prepared.intern(sqlText, p), nil
}

// QueryPrepared executes a prepared statement. Even when an intervening
// catalog change invalidated the plan cache, the parse is never repaid: the
// handle's statement, or its shape, replans directly, and a handle whose
// shape a DDL made unsafe binds its literals back into the shape's tree.
func (e *Engine) QueryPrepared(opts QueryOptions, p *Prepared) (*Result, error) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	q := query{norm: p.norm, text: p.Text, stmt: p.stmt}
	if sh := p.shape; sh != nil {
		if p.stmt != nil {
			q.items = p.stmt.Select
		}
		if sh.perText {
			// Run as its text, the handle is keyed by that text's normal form,
			// which it does not keep.
			q.norm, q.stmt = sql.Normalize(p.Text), sql.Bind(sh.stmt, p.args)
		} else {
			q.text, q.stmt, q.shape, q.args = "", nil, sh, p.args
		}
	}
	return e.execSelect(opts, q)
}

// sameLabel reports whether two SELECT items answer under the same label.
func sameLabel(a, b sql.SelectItem) bool {
	return a.Star == b.Star && (a.Star || a.Label() == b.Label())
}

// PreparedStatements reports how many statement texts the prepared-statement
// table holds after dropping those whose handles no caller references any
// more. A handle dropped since the last garbage collection still counts.
func (e *Engine) PreparedStatements() int { return e.prepared.live() }

// parameterize returns the shape of a point lookup and the literals its
// slots take, or nil when stmt is not one (see Prepared). Callers hold the
// reader lock.
func (e *Engine) parameterize(stmt *sql.SelectStmt) (*sql.SelectStmt, []value.Value) {
	t, alias := e.soleTable(stmt)
	if t == nil {
		return nil, nil
	}
	var pinned []int
	sql.Equalities(stmt.Where, func(col *sql.ColRef, operand sql.Expr) {
		if lit, ok := operand.(*sql.Literal); ok {
			pinned = append(pinned, pinnedColumn(t, alias, col, lit.Val.Kind))
		}
	})
	// A range or any other predicate beside the equalities keeps the
	// statement per text: parameterizing its literals would let their values
	// price the plan, and leaving them in would make a shape few texts share.
	key := uniqueKey(t, pinned)
	if key == nil || len(pinned) != len(sql.SplitConjuncts(stmt.Where)) {
		return nil, nil
	}
	return sql.Parameterize(stmt, func(col *sql.ColRef, lit value.Value) bool {
		return slices.Contains(key, pinnedColumn(t, alias, col, lit.Kind))
	})
}

// shapeHolds reports whether the catalog still gives a shape what
// parameterize found: a table whose columns the slots pin are of the slots'
// kinds and hold a unique key. Callers hold the reader or writer lock.
func (e *Engine) shapeHolds(stmt *sql.SelectStmt) bool {
	t, alias := e.soleTable(stmt)
	if t == nil {
		return false
	}
	var pinned []int
	sql.Equalities(stmt.Where, func(col *sql.ColRef, operand sql.Expr) {
		if p, ok := operand.(*sql.Param); ok {
			pinned = append(pinned, pinnedColumn(t, alias, col, p.Kind))
		}
	})
	return !slices.Contains(pinned, -1) && uniqueKey(t, pinned) != nil
}

// soleTable returns the table a SELECT reads when its FROM names exactly one
// base table, and the name the statement qualifies its columns by.
func (e *Engine) soleTable(stmt *sql.SelectStmt) (*catalog.Table, string) {
	if len(stmt.From) != 1 || stmt.From[0].Subquery != nil {
		return nil, ""
	}
	t, err := e.cat.Table(stmt.From[0].Table)
	if err != nil {
		return nil, ""
	}
	return t, stmt.From[0].Name()
}

// pinnedColumn returns the ordinal of the column of t that col names when a
// value of kind pins it: a non-NULL value of the column's own kind. It
// returns -1 otherwise.
func pinnedColumn(t *catalog.Table, alias string, col *sql.ColRef, kind value.Kind) int {
	if col.Table != "" && !strings.EqualFold(col.Table, alias) {
		return -1
	}
	ord := t.ColumnIndex(col.Column)
	if ord < 0 || kind == value.KindNull || t.Columns[ord].Kind != kind {
		return -1
	}
	return ord
}

// uniqueKey returns the columns of the first unique key of t — its clustered
// key, then each unique index — that the pinned columns cover, or nil.
func uniqueKey(t *catalog.Table, pinned []int) []int {
	covers := func(key []int) bool {
		for _, ord := range key {
			if !slices.Contains(pinned, ord) {
				return false
			}
		}
		return len(key) > 0
	}
	if covers(t.Clustered.KeyColumns) {
		return t.Clustered.KeyColumns
	}
	for _, ix := range t.Secondary {
		if ix.Unique && covers(ix.KeyColumns) {
			return ix.KeyColumns
		}
	}
	return nil
}

// minInternSweep is the table size below which intern never sweeps.
const minInternSweep = 64

// internTable interns values by key — prepared handles by exact text,
// shapes by text and slot kinds. It holds them weakly: an entry keeps its
// value only while some caller (a server session's handle, typically)
// references it, so a dropped handle's parse tree is collected like any
// garbage. What a dropped value leaves behind, its map entry, goes at the
// next sweep, which intern runs whenever the table has doubled since the
// last one. The table therefore never holds more than twice the keys whose
// values were live at the last sweep (or minInternSweep), however many
// distinct keys are interned over the engine's life.
type internTable[T any] struct {
	mu      sync.Mutex
	byKey   map[string]weak.Pointer[T]
	sweepAt int // table size that triggers the next sweep
}

func newInternTable[T any]() *internTable[T] {
	return &internTable[T]{byKey: make(map[string]weak.Pointer[T]), sweepAt: minInternSweep}
}

// lookup returns the live value interned under key, or nil.
func (t *internTable[T]) lookup(key string) *T {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[key].Value()
}

// intern returns the live value under key, registering v when there is
// none: of two callers that build the same value at once, both end up with
// the first registration.
func (t *internTable[T]) intern(key string, v *T) *T {
	t.mu.Lock()
	defer t.mu.Unlock()
	if live := t.byKey[key].Value(); live != nil {
		return live
	}
	t.byKey[key] = weak.Make(v)
	if len(t.byKey) >= t.sweepAt {
		t.sweep()
	}
	return v
}

// live sweeps the table and returns how many keys it holds.
func (t *internTable[T]) live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweep()
	return len(t.byKey)
}

// each calls f with every live value.
func (t *internTable[T]) each(f func(*T)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.byKey {
		if v := w.Value(); v != nil {
			f(v)
		}
	}
}

// sweep rebuilds the table from the entries whose values are live, so
// neither the entries of collected values nor the map's peak size outlive
// them, and sets the next sweep at twice the live count.
func (t *internTable[T]) sweep() {
	live := make(map[string]weak.Pointer[T])
	for key, w := range t.byKey {
		if w.Value() != nil {
			live[key] = w
		}
	}
	t.byKey = live
	t.sweepAt = max(2*len(live), minInternSweep)
}
