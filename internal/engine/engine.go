// Package engine ties the storage, catalog, SQL and planning layers into a
// usable database engine: it executes DDL, INSERT and SELECT statements,
// bulk-loads tables, and reports per-query execution statistics (wall time
// and page I/O) that the benchmark harness converts into modeled disk time.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"oldelephant/internal/catalog"
	"oldelephant/internal/exec"
	"oldelephant/internal/plan"
	"oldelephant/internal/sql"
	"oldelephant/internal/storage"
	"oldelephant/internal/trace"
	"oldelephant/internal/value"
	"oldelephant/internal/wal"
)

// Options configure a new engine instance.
type Options struct {
	// BufferPoolPages bounds the buffer pool: at most this many pages are in
	// memory (plus, for a durable engine, those written since the last
	// checkpoint) and the rest are read from the data file — or, in memory,
	// from a private spill file — when accessed. 0 means unbounded: every
	// page stays in memory and nothing spills.
	BufferPoolPages int
	// DisableVectorized forces the row-at-a-time Volcano path, kept for
	// differential testing. Batch-at-a-time (MonetDB/X100-style) execution is
	// the default: the zero Options value runs vectorized.
	DisableVectorized bool
	// Parallelism is the number of workers for morsel-parallel query
	// execution. 0 (the zero value) selects runtime.GOMAXPROCS(0); 1 disables
	// parallel execution entirely, reproducing the serial plans byte for
	// byte. Only vectorized execution parallelizes; the row-at-a-time path
	// always runs serial. Results are deterministic at any worker count, but
	// per-query IOStats are not: concurrent morsel scans interleave their
	// pager reads, so the sequential/random stream classification (and with a
	// bounded buffer pool, the read counts) can vary run to run — measurements
	// that lean on the paper's I/O model should pin Parallelism to 1, as
	// internal/bench's Config does by default and benchmark/ does for every
	// statement whose reads it prices (modeled_disk_cost).
	Parallelism int
	// DataDir, when set, makes the engine durable (via Open): pages live in a
	// checksummed data file, commits in a write-ahead log, and recovery runs
	// on open. Empty means in-memory. New ignores it; use Open.
	DataDir string
	// FS overrides the filesystem used for the data file, WAL and meta file
	// (the crash-recovery harness injects faults through it) or, for an
	// in-memory engine made by New, for a bounded pool's spill file. nil
	// selects the real filesystem, rooted at DataDir.
	FS storage.FS
}

// Engine is a single-node, in-process database instance.
//
// Concurrency: SELECTs may run from any number of goroutines — they share a
// reader lock, the catalog, the buffer pool and the plan cache. Mutating
// statements (DDL, INSERT, bulk loads) take the writer lock, so they wait for
// in-flight queries, run alone, and invalidate the plan cache before queries
// resume. Per-query IOStats remain exact only when one query runs at a time:
// concurrent queries interleave their page accesses in the shared pager, so
// a concurrent query's Stats.IO reflects its share of a mixed stream.
type Engine struct {
	// stateMu is the reader/writer isolation described above: queries hold it
	// shared, mutations exclusive. Internal helpers assume the caller holds
	// the appropriate side and never lock it themselves.
	stateMu     sync.RWMutex
	viewMu      sync.RWMutex
	pager       *storage.Pager
	cat         *catalog.Catalog
	views       map[string]*ViewDef
	vectorized  bool
	parallelism int
	plans       *planCache
	prepared    *internTable[Prepared]
	shapes      *internTable[shape]

	// Durability state (nil/empty for in-memory engines; see durability.go).
	fsys                        storage.FS
	wal                         *wal.WAL
	dataPath, walPath, metaPath string
	// pending holds committed-but-not-yet-durable statements (undo records),
	// guarded by stateMu.
	pending []pendingCommit
}

// ViewDef records a materialized view: its defining query and backing table.
type ViewDef struct {
	Name  string
	Query *sql.SelectStmt
	// Table is the name of the table holding the materialized rows.
	Table string
	// Source is the shape of Query, nil when sql.ShapeOf refuses it.
	Source *sql.Shape
	// GroupColumns are the output labels that came from GROUP BY columns.
	GroupColumns []string
	// AggColumns are the output labels that came from aggregate expressions,
	// parallel to Aggregates.
	AggColumns []string
	// Aggregates are the defining aggregate calls (canonical SQL text).
	Aggregates []string
}

// New creates an empty in-memory engine. For a durable (file-backed) engine
// use Open.
func New(opts Options) *Engine {
	fsys := opts.FS
	if fsys == nil {
		fsys = storage.OSFS{}
	}
	return newWithPager(opts, storage.NewPagerFS(fsys, opts.BufferPoolPages))
}

func newWithPager(opts Options, pager *storage.Pager) *Engine {
	vectorized := !opts.DisableVectorized
	parallelism := opts.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if !vectorized {
		parallelism = 1
	}
	cat := catalog.New(pager)
	cat.SetWorkers(parallelism)
	return &Engine{
		pager:       pager,
		cat:         cat,
		views:       make(map[string]*ViewDef),
		vectorized:  vectorized,
		parallelism: parallelism,
		plans:       newPlanCache(planCacheSize),
		prepared:    newInternTable[Prepared](),
		shapes:      newInternTable[shape](),
	}
}

// Default returns an engine with the default options used throughout the
// paper reproduction: vectorized, with an unbounded buffer pool.
func Default() *Engine { return New(Options{}) }

// Vectorized reports whether the engine executes queries batch-at-a-time.
func (e *Engine) Vectorized() bool { return e.vectorized }

// Parallelism reports the worker count used for morsel-parallel execution
// (1 means serial).
func (e *Engine) Parallelism() int { return e.parallelism }

// Catalog exposes the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Pager exposes the engine's pager (for I/O accounting).
func (e *Engine) Pager() *storage.Pager { return e.pager }

// Views returns the definitions of all materialized views, keyed by
// lower-case name. The returned map is a copy: view definitions may be
// created or dropped by a concurrent session, so callers iterate a stable
// snapshot (the *ViewDef values themselves are immutable once created).
func (e *Engine) Views() map[string]*ViewDef {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	out := make(map[string]*ViewDef, len(e.views))
	for k, v := range e.views {
		out[k] = v
	}
	return out
}

// View returns a materialized view definition by name.
func (e *Engine) View(name string) (*ViewDef, bool) {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	v, ok := e.views[strings.ToLower(name)]
	return v, ok
}

// PlanCacheStats returns a snapshot of the shared plan cache's counters.
func (e *Engine) PlanCacheStats() PlanCacheStats { return e.plans.snapshot() }

// invalidatePlans clears the plan cache and settles every live shape
// against the catalog as the mutation left it (see shape.perText); callers
// hold the writer lock.
func (e *Engine) invalidatePlans() {
	e.plans.invalidate()
	e.shapes.each(func(sh *shape) { sh.perText = !e.shapeHolds(sh.stmt) })
}

// Stats captures the cost of executing one statement.
type Stats struct {
	// Wall is the elapsed wall-clock time of execution (excluding parsing).
	Wall time.Duration
	// IO is the page I/O performed while executing.
	IO storage.IOStats
	// RowsReturned is the number of result rows.
	RowsReturned int
	// PlanCached reports that the query executed a leased plan-cache instance
	// (lex/parse/plan skipped entirely).
	PlanCached bool
}

// Result is the outcome of executing a statement. DDL statements return no
// rows but still carry statistics.
type Result struct {
	Columns []string
	Rows    []exec.Row
	Plan    string
	// PlanHash fingerprints Plan (plan.Plan.Hash): equal hashes mean the same
	// physical plan shape. Empty when no plan ran.
	PlanHash string
	Stats    Stats
	// EstPages is the planner's estimate of the cold page reads of the
	// plan's access path (plan.Plan.EstPages): set when the statement read a
	// single base table, nil otherwise.
	EstPages *plan.PageEstimate
	// Trace is the per-operator execution trace, set only when the query ran
	// with QueryOptions.Trace (EXPLAIN ANALYZE). The tree is finished and
	// immutable: safe to share, serialize or aggregate.
	Trace *trace.Span
}

// ResetBufferPool empties the buffer pool so the next query runs cold, the
// way every measurement in the paper is taken.
func (e *Engine) ResetBufferPool() { e.pager.ResetCache() }

// Execute parses and runs one SQL statement (SELECT, INSERT, CREATE TABLE /
// INDEX / MATERIALIZED VIEW, DROP TABLE).
func (e *Engine) Execute(sqlText string) (*Result, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return e.ExecuteStmt(stmt)
}

// ExecuteStmt runs an already-parsed statement. SELECTs run under the shared
// reader lock; everything else takes the writer lock, runs alone, and
// invalidates the plan cache (compiled plans embed access paths, seek bounds
// and cardinality estimates that any catalog or data change can break; a
// parallel plan splits its source into morsels when it opens, not when it is
// compiled). On a durable engine the statement is acknowledged only once its
// WAL records are on disk; the fsync wait happens after the writer lock is
// released, so concurrent committers share one fsync (group commit).
func (e *Engine) ExecuteStmt(stmt sql.Statement) (*Result, error) {
	if s, ok := stmt.(*sql.SelectStmt); ok {
		return e.QueryStmt(s)
	}
	if s, ok := stmt.(*sql.ExplainStmt); ok {
		return e.runExplain(s)
	}
	res, lsn, err := e.applyMutation(stmt)
	if err != nil {
		return nil, err
	}
	if lsn > 0 {
		if err := e.waitDurable(lsn); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// applyMutation runs the mutation under the writer lock and, on a durable
// engine, appends its commit group to the WAL (returning the LSN to await).
func (e *Engine) applyMutation(stmt sql.Statement) (*Result, int64, error) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	defer e.invalidatePlans()
	kind, info := StmtDDL, stmtLabel(stmt)
	if _, ok := stmt.(*sql.InsertStmt); ok {
		kind = StmtInsert
	}
	return e.mutateLocked(kind, info, func() (*Result, error) {
		switch s := stmt.(type) {
		case *sql.CreateTableStmt:
			return e.runCreateTable(s)
		case *sql.CreateIndexStmt:
			return e.runCreateIndex(s)
		case *sql.CreateViewStmt:
			return e.runCreateView(s)
		case *sql.InsertStmt:
			return e.runInsert(s)
		case *sql.DropTableStmt:
			return e.runDropTable(s)
		default:
			return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
		}
	})
}

// stmtLabel is the short statement description recorded in WAL commit markers.
func stmtLabel(stmt sql.Statement) string {
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		return "CREATE TABLE " + s.Name
	case *sql.CreateIndexStmt:
		return "CREATE INDEX " + s.Name
	case *sql.CreateViewStmt:
		return "CREATE VIEW " + s.Name
	case *sql.InsertStmt:
		return "INSERT INTO " + s.Table
	case *sql.DropTableStmt:
		return "DROP TABLE " + s.Name
	default:
		return fmt.Sprintf("%T", stmt)
	}
}

// QueryOptions configure one query execution on top of the engine's
// defaults; the zero value reproduces plain Query.
type QueryOptions struct {
	// Ctx, when non-nil, cancels the query: execution checks it at batch
	// boundaries and a queue/timeout cancellation surfaces as the context's
	// error. nil means run to completion.
	Ctx context.Context
	// Parallelism overrides the engine's morsel-parallel worker count for
	// this query when > 0 — the serving layer's admission control grants each
	// query a slice of the core budget and pins the plan to it.
	Parallelism int
	// NoCache bypasses the plan cache for this query.
	NoCache bool
	// Trace instruments the plan with per-operator collectors and attaches
	// the finished span tree as Result.Trace. Traced executions always bypass
	// the plan cache: the instrumented operator instances must not be leased
	// to later (untraced) executions. When Trace is false no tracing code
	// runs at all — the untraced path is unchanged.
	Trace bool
}

// Query runs a SELECT statement and returns its result.
func (e *Engine) Query(sqlText string) (*Result, error) {
	return e.QueryWith(QueryOptions{}, sqlText)
}

// QueryWith runs a SELECT with per-query options. It is safe to call from
// concurrent goroutines.
func (e *Engine) QueryWith(opts QueryOptions, sqlText string) (*Result, error) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.execSelect(opts, query{norm: sql.Normalize(sqlText), text: sqlText})
}

// QueryStmt runs an already-parsed SELECT. Statement-handle executions have
// no normalized text to key the plan cache with, so they always plan.
func (e *Engine) QueryStmt(stmt *sql.SelectStmt) (*Result, error) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	return e.execSelect(QueryOptions{}, query{stmt: stmt})
}

// query is one SELECT for execSelect: its plan-cache key (the normalized
// text of a statement without a shape), the text it was run as, and the
// statement as text to parse on a cache miss, as a parse tree, or as a
// prepared shape with the values of its slots. items, when set, is the
// SELECT list whose labels the result takes: a handle's own, where its shape
// was compiled from a spelling with other labels.
type query struct {
	norm, text string
	stmt       *sql.SelectStmt
	shape      *shape
	args       []value.Value
	items      []sql.SelectItem
}

// execSelect is the shared SELECT path: lease a cached plan (or parse and
// plan), bind the query's slot values into it, execute, and return the
// instance to the cache. Callers hold the reader lock — or the writer lock
// for internal selects like view materialization. A query with no
// fingerprint and no shape, or options that bypass the cache, plans afresh.
func (e *Engine) execSelect(opts QueryOptions, q query) (*Result, error) {
	// The I/O window opens before planning: planning walks a range's
	// internal pages to decide whether it splits into morsels (and a
	// parallel operator splits it again as it opens), and those page reads
	// are the query's too.
	before := e.pager.Stats()
	par := e.effectiveParallelism(opts.Parallelism)
	stmt, key := q.stmt, planKey{sql: q.norm, parallelism: par}
	if q.shape != nil {
		stmt, key = q.shape.stmt, planKey{sql: q.shape.text, kinds: q.shape.kinds, parallelism: par}
	}
	useCache := key.sql != "" && !opts.NoCache && !opts.Trace
	var pl *plan.Plan
	cached, items := false, q.items
	if useCache {
		var cachedStmt *sql.SelectStmt
		var cachedText string
		pl, cachedStmt, cachedText = e.plans.acquire(key)
		cached = pl != nil
		if stmt == nil {
			stmt = cachedStmt
		}
		// An entry compiled from another spelling of the statement answers
		// under that spelling's labels; the result takes its own.
		if cachedStmt != nil && q.shape == nil && items == nil && q.text != cachedText {
			own := q.stmt
			if own == nil {
				var err error
				if own, err = sql.ParseSelect(q.text); err != nil {
					return nil, err
				}
			}
			items = own.Select
		}
	}
	if pl != nil {
		if err := pl.Bind(q.args); err != nil {
			return nil, err
		}
	} else {
		if stmt == nil {
			var err error
			stmt, err = sql.ParseSelect(q.text)
			if err != nil {
				return nil, err
			}
		}
		var err error
		if pl, err = e.planSelect(stmt, par, q.args); err != nil {
			return nil, err
		}
		// Whether a pipeline went parallel rests on the size of the ranges
		// it reads: where the slots' values bound one, the plan is theirs.
		useCache = useCache && !(pl.Parallel && pl.SlotBounds)
	}
	var span *trace.Span
	if opts.Trace {
		pl.Root, span = exec.InstrumentPlan(pl.Root)
	}
	res, err := e.executePlan(opts.Ctx, pl, before)
	if err != nil {
		// The plan instance is discarded, not released: after a failed or
		// canceled execution its operator state is suspect.
		return nil, err
	}
	if useCache {
		e.plans.release(key, stmt, q.text, pl)
	}
	if items != nil {
		res.Columns = relabel(res.Columns, items)
	}
	res.Stats.PlanCached = cached
	res.Trace = span
	return res, nil
}

// QueryBatches runs a parsed SELECT as Query does, but streams its result
// instead of collecting rows: open is called once with the result's column
// labels, before any row, and returns the function each batch of the result
// is handed to, in order, as the plan produces it. A batch is valid only until
// that function returns. Every operator answers the batch pull, so the
// row-at-a-time engine streams batches too. The statement runs under the
// reader lock and skips the plan cache; the functions must not call into the
// engine.
func (e *Engine) QueryBatches(stmt *sql.SelectStmt, open func(columns []string) (func(*exec.Batch) error, error)) error {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	pl, err := e.planSelect(stmt, e.parallelism, nil)
	if err != nil {
		return err
	}
	each, err := open(pl.Columns)
	if err != nil {
		return err
	}
	return exec.DrainEach(nil, pl.Root, each)
}

// relabel returns cols, the result columns of a plan compiled from another
// spelling of a statement whose SELECT list is items, under the items' own
// labels. A star keeps the plan's names for the columns it expands to.
func relabel(cols []string, items []sql.SelectItem) []string {
	stars := 0
	for _, item := range items {
		if item.Star {
			stars++
		}
	}
	width := 0
	if stars > 0 {
		width = (len(cols) - len(items) + stars) / stars
	}
	if len(items)-stars+stars*width != len(cols) {
		return cols
	}
	out := make([]string, 0, len(cols))
	for _, item := range items {
		if item.Star {
			out = append(out, cols[len(out):len(out)+width]...)
		} else {
			out = append(out, item.Label())
		}
	}
	return out
}

// executePlan drains a compiled plan through the engine's pull (batches when
// vectorized, else rows), honoring a cancellation context when one is set.
// The result's I/O is the pager's activity since before.
func (e *Engine) executePlan(ctx context.Context, pl *plan.Plan, before storage.IOStats) (*Result, error) {
	start := time.Now()
	var rows []exec.Row
	var err error
	if e.vectorized {
		rows, err = exec.DrainBatches(ctx, pl.Root)
	} else {
		rows, err = exec.Drain(ctx, pl.Root)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	after := e.pager.Stats()
	return &Result{
		Columns:  pl.Columns,
		Rows:     rows,
		Plan:     pl.Explain,
		PlanHash: pl.Hash,
		EstPages: pl.EstPages,
		Stats: Stats{
			Wall:         elapsed,
			IO:           after.Sub(before),
			RowsReturned: len(rows),
		},
	}, nil
}

// planSelect compiles a SELECT under the engine's executor knobs, binds the
// values of its parameter slots, applies the morsel-parallel rewrite for the
// given worker count and hashes the final plan text once, so every leased
// instance carries its hash. The slots are bound before the rewrite, which
// sizes the ranges they bound. Callers hold the reader lock.
func (e *Engine) planSelect(stmt *sql.SelectStmt, workers int, args []value.Value) (*plan.Plan, error) {
	planner := plan.NewPlanner(e.cat)
	planner.DisableVectorized = !e.vectorized
	pl, err := planner.PlanSelect(stmt)
	if err != nil {
		return nil, err
	}
	if err := pl.Bind(args); err != nil {
		return nil, err
	}
	e.parallelizePlan(pl, workers)
	pl.Hash = plan.HashText(pl.Explain)
	return pl, nil
}

// effectiveParallelism resolves a per-query override against the engine
// defaults (the row engine is always serial).
func (e *Engine) effectiveParallelism(override int) int {
	par := e.parallelism
	if override > 0 {
		par = override
	}
	if !e.vectorized {
		par = 1
	}
	return par
}

// parallelizePlan applies the morsel-parallel rewrite to a compiled plan and
// annotates its Explain string when a pipeline actually went parallel, so
// the reported plan matches what executes.
func (e *Engine) parallelizePlan(pl *plan.Plan, workers int) {
	if !e.vectorized || workers <= 1 {
		return
	}
	root, rewrote := plan.Parallelize(pl.Root, workers)
	pl.Root, pl.Parallel = root, rewrote
	if rewrote {
		pl.Explain = fmt.Sprintf("%s [parallel %d]", pl.Explain, workers)
	}
}

// runExplain executes an EXPLAIN [ANALYZE] statement. Plain EXPLAIN plans
// the query and returns the plan text as rows; EXPLAIN ANALYZE executes the
// query with tracing on and returns the plan text followed by the annotated
// operator tree (per-operator rows, batches, wall time, worker/morsel counts)
// and an execution summary. Either way the result is a single "plan" string
// column, one line per row, with the structured span tree in Result.Trace
// for ANALYZE.
func (e *Engine) runExplain(s *sql.ExplainStmt) (*Result, error) {
	if !s.Analyze {
		e.stateMu.RLock()
		pl, err := e.planSelect(s.Query, e.parallelism, nil)
		e.stateMu.RUnlock()
		if err != nil {
			return nil, err
		}
		return planTextResult(pl.Explain, pl.Hash, strings.Split(pl.Explain, "\n")), nil
	}
	e.stateMu.RLock()
	res, err := e.execSelect(QueryOptions{Trace: true}, query{stmt: s.Query})
	e.stateMu.RUnlock()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(res.Plan, "\n")
	lines = append(lines, res.Trace.Lines()...)
	lines = append(lines, summaryLine(res))
	out := planTextResult(res.Plan, res.PlanHash, lines)
	out.EstPages = res.EstPages
	out.Trace = res.Trace
	out.Stats = res.Stats
	out.Stats.RowsReturned = len(out.Rows)
	return out, nil
}

// summaryLine is EXPLAIN ANALYZE's last line: wall time, rows and the page
// reads by the pager's class, with the planner's cold estimate beside them
// when the plan has one. The reads are this run's; a warm buffer pool serves
// pages the estimate counts.
func summaryLine(res *Result) string {
	io := res.Stats.IO
	line := fmt.Sprintf("Execution time: %s  rows returned: %d  page reads: %d (seq %d, rand %d)",
		res.Stats.Wall.Round(time.Microsecond), res.Stats.RowsReturned, io.PageReads, io.SeqReads, io.RandReads)
	if est := res.EstPages; est != nil {
		line += fmt.Sprintf("  estimated cold: seq %.1f, rand %.1f", est.Seq, est.Rand)
	}
	return line
}

// planTextResult wraps annotation lines as a one-column result.
func planTextResult(planText, planHash string, lines []string) *Result {
	rows := make([]exec.Row, len(lines))
	for i, line := range lines {
		rows[i] = exec.Row{value.NewString(line)}
	}
	return &Result{Columns: []string{"plan"}, Rows: rows, Plan: planText, PlanHash: planHash,
		Stats: Stats{RowsReturned: len(rows)}}
}

// Explain plans a SELECT and returns the textual plan without executing it,
// including the morsel-parallel rewrite the engine would apply.
func (e *Engine) Explain(sqlText string) (string, error) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	stmt, err := sql.ParseSelect(sqlText)
	if err != nil {
		return "", err
	}
	pl, err := e.planSelect(stmt, e.parallelism, nil)
	if err != nil {
		return "", err
	}
	return pl.Explain, nil
}

// columnKind maps a SQL type name to a value kind.
func columnKind(typ string) (value.Kind, error) {
	switch strings.ToUpper(typ) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return value.KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return value.KindFloat, nil
	case "DATE", "DATETIME", "TIMESTAMP":
		return value.KindDate, nil
	case "CHAR", "VARCHAR", "TEXT", "STRING", "NVARCHAR":
		return value.KindString, nil
	case "BOOL", "BOOLEAN", "BIT":
		return value.KindBool, nil
	default:
		return value.KindNull, fmt.Errorf("engine: unsupported column type %q", typ)
	}
}

func (e *Engine) runCreateTable(s *sql.CreateTableStmt) (*Result, error) {
	cols, err := tableColumns(s)
	if err != nil {
		return nil, err
	}
	if _, err := e.cat.CreateTable(s.Name, cols, s.PrimaryKey); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// tableColumns are the columns a CREATE TABLE statement declares.
func tableColumns(s *sql.CreateTableStmt) ([]catalog.Column, error) {
	cols := make([]catalog.Column, len(s.Columns))
	for i, c := range s.Columns {
		kind, err := columnKind(c.Type)
		if err != nil {
			return nil, err
		}
		cols[i] = catalog.Column{Name: c.Name, Kind: kind}
	}
	return cols, nil
}

func (e *Engine) runCreateIndex(s *sql.CreateIndexStmt) (*Result, error) {
	if s.Clustered {
		return nil, fmt.Errorf("engine: declare the clustered key as PRIMARY KEY in CREATE TABLE (table %q)", s.Table)
	}
	if _, err := e.cat.CreateIndex(s.Name, s.Table, s.Columns, s.Include, s.Unique); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// runCreateView materializes the view query into a table clustered on the
// view's group-by columns and records the definition for view matching.
func (e *Engine) runCreateView(s *sql.CreateViewStmt) (*Result, error) {
	if !s.Materialized {
		return nil, fmt.Errorf("engine: only MATERIALIZED views are supported")
	}
	name := strings.ToLower(s.Name)
	if _, exists := e.View(name); exists {
		return nil, fmt.Errorf("engine: view %q already exists", s.Name)
	}
	// The materializing select runs under the writer lock the caller holds;
	// it must not re-enter the locked query path (or the plan cache, which is
	// about to be invalidated).
	res, err := e.execSelect(QueryOptions{}, query{stmt: s.Query})
	if err != nil {
		return nil, err
	}
	// A column's kind is that of its first non-NULL value (INT when there is
	// none). The group-by columns become the clustered key, which stores only
	// values of the declared kind, so a NULL group in the first row must not
	// decide it.
	kinds := make([]value.Kind, len(res.Columns))
	for i := range kinds {
		kinds[i] = value.KindInt
		for _, row := range res.Rows {
			if !row[i].IsNull() {
				kinds[i] = row[i].Kind
				break
			}
		}
	}
	cols := make([]catalog.Column, len(res.Columns))
	for i, cname := range res.Columns {
		cols[i] = catalog.Column{Name: cname, Kind: kinds[i]}
	}
	// The group-by output columns become the clustered key.
	def, err := newViewDef(s.Name, s.Query, res.Columns)
	if err != nil {
		return nil, err
	}
	tbl, err := e.cat.CreateTable(s.Name, cols, def.GroupColumns)
	if err != nil {
		return nil, err
	}
	tbl.Definition = s.Query.String()
	if err := tbl.BulkLoad(res.Rows); err != nil {
		return nil, err
	}
	e.viewMu.Lock()
	e.views[name] = def
	e.viewMu.Unlock()
	return &Result{Stats: res.Stats}, nil
}

// newViewDef derives a view's definition from its defining query and the
// column names of the table that materializes it: each select item's label is
// the column at its position, an item that selects a GROUP BY column labels
// a group column and every other item an aggregate. A query that sql.ShapeOf
// refuses leaves a view with no Source and no group columns: it matches no
// query and is stored keyless. CREATE MATERIALIZED VIEW and recovery both call
// it, so the labels are never stored.
func newViewDef(name string, query *sql.SelectStmt, columns []string) (*ViewDef, error) {
	if len(query.Select) > len(columns) {
		return nil, fmt.Errorf("engine: view %q selects %d items into %d columns", name, len(query.Select), len(columns))
	}
	def := &ViewDef{Name: name, Query: query, Table: name}
	src, err := sql.ShapeOf(query)
	if err != nil {
		return def, nil
	}
	def.Source = src
	for i, item := range src.Items {
		if item.Star {
			continue
		}
		if ref, ok := item.Expr.(*sql.ColRef); ok && src.Groups(ref.Column) {
			def.GroupColumns = append(def.GroupColumns, columns[i])
			continue
		}
		def.AggColumns = append(def.AggColumns, columns[i])
		def.Aggregates = append(def.Aggregates, strings.ToUpper(item.Expr.String()))
	}
	return def, nil
}

func (e *Engine) runInsert(s *sql.InsertStmt) (*Result, error) {
	tbl, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	// Map the statement's column list (or the full schema) to table ordinals.
	ords := make([]int, 0, len(tbl.Columns))
	if len(s.Columns) == 0 {
		for i := range tbl.Columns {
			ords = append(ords, i)
		}
	} else {
		for _, cname := range s.Columns {
			ord := tbl.ColumnIndex(cname)
			if ord < 0 {
				return nil, fmt.Errorf("engine: table %q has no column %q", s.Table, cname)
			}
			ords = append(ords, ord)
		}
	}
	start := time.Now()
	before := e.pager.Stats()
	count := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(ords) {
			return nil, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(exprRow), len(ords))
		}
		row := make([]value.Value, len(tbl.Columns))
		for i := range row {
			row[i] = value.Null()
		}
		for i, ast := range exprRow {
			v, err := evalConstExpr(ast)
			if err != nil {
				return nil, err
			}
			row[ords[i]] = coerceValue(v, tbl.Columns[ords[i]].Kind)
		}
		if err := tbl.Insert(row); err != nil {
			return nil, err
		}
		count++
	}
	// Nothing here refreshes, or even marks stale, the materialized views and
	// c-tables built over this table: they keep answering with pre-insert
	// contents until rebuilt (ROADMAP open item 1).
	after := e.pager.Stats()
	return &Result{Stats: Stats{Wall: time.Since(start), IO: after.Sub(before), RowsReturned: count}}, nil
}

func (e *Engine) runDropTable(s *sql.DropTableStmt) (*Result, error) {
	if err := e.cat.DropTable(s.Name); err != nil {
		return nil, err
	}
	e.viewMu.Lock()
	delete(e.views, strings.ToLower(s.Name))
	e.viewMu.Unlock()
	return &Result{}, nil
}

// evalConstExpr evaluates an AST expression that must not reference columns.
func evalConstExpr(e sql.Expr) (value.Value, error) {
	switch t := e.(type) {
	case *sql.Literal:
		return t.Val, nil
	case *sql.BinExpr:
		l, err := evalConstExpr(t.L)
		if err != nil {
			return value.Null(), err
		}
		r, err := evalConstExpr(t.R)
		if err != nil {
			return value.Null(), err
		}
		switch t.Op {
		case "+":
			return value.Add(l, r), nil
		case "-":
			return value.Sub(l, r), nil
		case "*":
			return value.Mul(l, r), nil
		case "/":
			return value.Div(l, r), nil
		default:
			return value.Null(), fmt.Errorf("engine: operator %q not allowed in VALUES", t.Op)
		}
	default:
		return value.Null(), fmt.Errorf("engine: VALUES must be constant expressions, got %T", e)
	}
}

// coerceValue converts a literal to the column's kind where a lossless,
// intuitive conversion exists (strings to dates, ints to floats, ...).
func coerceValue(v value.Value, kind value.Kind) value.Value {
	if v.IsNull() || v.Kind == kind {
		return v
	}
	switch kind {
	case value.KindDate:
		if v.Kind == value.KindString {
			if d, err := value.ParseDate(v.S); err == nil {
				return d
			}
		}
		if v.Kind == value.KindInt {
			return value.NewDate(v.I)
		}
	case value.KindFloat:
		if v.Kind == value.KindInt {
			return value.NewFloat(float64(v.I))
		}
	case value.KindInt:
		if v.Kind == value.KindFloat {
			return value.NewInt(int64(v.F))
		}
		if v.Kind == value.KindBool {
			return value.NewInt(v.I)
		}
	case value.KindString:
		return value.NewString(v.String())
	case value.KindBool:
		return value.NewBool(v.Bool())
	}
	return v
}

// BulkLoad loads rows programmatically into an empty table, coercing each
// value to the column kind, then creates the secondary indexes defs names from
// the rows in hand (see catalog.Table.BulkLoad). It is the fast path used by
// the TPC-H loader; the c-table builder runs the same load in its two halves,
// PrepareLoad and WriteLoad. Like every mutation it runs exclusively and
// invalidates the plan cache.
func (e *Engine) BulkLoad(table string, rows [][]value.Value, defs ...catalog.IndexDef) error {
	return e.load(table, func(tbl *catalog.Table) error { return tbl.BulkLoadWith(coerceValue, rows, defs...) })
}

// PrepareLoad works out a bulk load of rows, and of the indexes defs names,
// into the table the CREATE TABLE statement ddl makes, before that table
// exists (catalog.Catalog.PrepareLoad), coercing values as BulkLoad does. It
// takes no lock and touches nothing shared, so several loads can be worked
// out at once, beside queries.
func (e *Engine) PrepareLoad(ddl string, rows [][]value.Value, defs ...catalog.IndexDef) (*catalog.Load, error) {
	stmt, err := sql.Parse(ddl)
	if err != nil {
		return nil, err
	}
	create, ok := stmt.(*sql.CreateTableStmt)
	if !ok {
		return nil, fmt.Errorf("engine: a load is prepared for a CREATE TABLE statement, got %T", stmt)
	}
	cols, err := tableColumns(create)
	if err != nil {
		return nil, err
	}
	return e.cat.PrepareLoad(create.Name, cols, create.PrimaryKey, coerceValue, rows, defs...)
}

// WriteLoad writes a load PrepareLoad worked out into the named table, which
// the load's CREATE TABLE statement has made since: the statement BulkLoad
// would have run, with the same pages, statistics and indexes.
func (e *Engine) WriteLoad(table string, l *catalog.Load) error {
	return e.load(table, func(tbl *catalog.Table) error { return tbl.WriteLoad(l) })
}

// load runs a bulk load into the named table as one logged statement.
func (e *Engine) load(table string, fn func(*catalog.Table) error) error {
	_, lsn, err := e.applyLoad(table, fn)
	if err != nil {
		return err
	}
	if lsn > 0 {
		return e.waitDurable(lsn)
	}
	return nil
}

func (e *Engine) applyLoad(table string, fn func(*catalog.Table) error) (*Result, int64, error) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	defer e.invalidatePlans()
	return e.mutateLocked(StmtBulk, "BULK LOAD "+table, func() (*Result, error) {
		tbl, err := e.cat.Table(table)
		if err != nil {
			return nil, err
		}
		return &Result{}, fn(tbl)
	})
}

// TotalDataPages reports the number of allocated pages in the instance,
// a rough proxy for database size on disk.
func (e *Engine) TotalDataPages() int { return e.pager.NumPages() }
