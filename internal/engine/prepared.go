package engine

import (
	"sync"
	"weak"

	"oldelephant/internal/sql"
)

// Prepared is a SELECT parsed and normalized once, executable many times.
// The handle is immutable, so one handle serves every session that prepares
// the same text: Engine.Prepare interns handles by exact statement text, the
// way a shared SQL area lets every session reuse one parse of a statement.
// Compiled plans are leased per execution through the shared plan cache, so
// repeated executions skip lexing, parsing, planning and morsel partitioning.
type Prepared struct {
	// Text is the original statement text.
	Text string
	norm string
	stmt *sql.SelectStmt
}

// Prepare parses a SELECT into a reusable handle. While any handle prepared
// from the same text is still referenced, Prepare returns that handle instead
// of parsing again, so N sessions preparing the same statements hold one
// parse tree and one normalized text per statement, not N.
func (e *Engine) Prepare(sqlText string) (*Prepared, error) {
	if p := e.prepared.lookup(sqlText); p != nil {
		return p, nil
	}
	stmt, err := sql.ParseSelect(sqlText)
	if err != nil {
		return nil, err
	}
	return e.prepared.intern(&Prepared{Text: sqlText, norm: sql.Normalize(sqlText), stmt: stmt}), nil
}

// QueryPrepared executes a prepared statement. Even when an intervening
// catalog change invalidated the plan cache, the parse is never repaid —
// the handle's statement replans directly.
func (e *Engine) QueryPrepared(opts QueryOptions, p *Prepared) (*Result, error) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.execSelect(opts, p.norm, "", p.stmt)
}

// PreparedStatements reports how many statement texts the prepared-statement
// table holds after dropping those whose handles no caller references any
// more. A handle dropped since the last garbage collection still counts.
func (e *Engine) PreparedStatements() int {
	t := e.prepared
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweep()
	return len(t.byText)
}

// minPreparedSweep is the table size below which intern never sweeps.
const minPreparedSweep = 64

// preparedTable interns Prepared handles by exact text. It holds them
// weakly: an entry keeps its handle only while some caller (a server
// session, typically) references it, so a dropped handle's parse tree is
// collected like any garbage. What a dropped handle leaves behind, its map
// entry, goes at the next sweep, which intern runs whenever the table has
// doubled since the last one. The table therefore never holds more than
// twice the texts whose handles were live at the last sweep (or
// minPreparedSweep), however many distinct texts are prepared over the
// engine's life.
type preparedTable struct {
	mu      sync.Mutex
	byText  map[string]weak.Pointer[Prepared]
	sweepAt int // table size that triggers the next sweep
}

func newPreparedTable() *preparedTable {
	return &preparedTable{byText: make(map[string]weak.Pointer[Prepared]), sweepAt: minPreparedSweep}
}

// lookup returns the live handle interned for text, or nil.
func (t *preparedTable) lookup(text string) *Prepared {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byText[text].Value()
}

// intern returns the live handle for p.Text, registering p when there is
// none: of two sessions that parse the same text at once, both end up with
// the first registration.
func (t *preparedTable) intern(p *Prepared) *Prepared {
	t.mu.Lock()
	defer t.mu.Unlock()
	if live := t.byText[p.Text].Value(); live != nil {
		return live
	}
	t.byText[p.Text] = weak.Make(p)
	if len(t.byText) >= t.sweepAt {
		t.sweep()
	}
	return p
}

// sweep rebuilds the table from the entries whose handles are live, so
// neither the entries of collected handles nor the map's peak size outlive
// them, and sets the next sweep at twice the live count.
func (t *preparedTable) sweep() {
	live := make(map[string]weak.Pointer[Prepared])
	for text, h := range t.byText {
		if h.Value() != nil {
			live[text] = h
		}
	}
	t.byText = live
	t.sweepAt = max(2*len(live), minPreparedSweep)
}
