// Package elephant is the public API of the reproduction of "Teaching an
// Old Elephant New Tricks" (Nicolas Bruno, CIDR 2009).
//
// The package wraps a from-scratch row-store engine (SQL parser, planner,
// B+-tree storage, vectorized batch-at-a-time executor with a row-at-a-time
// Volcano fallback) and the paper's two techniques for emulating a column
// store inside it without engine changes:
//
//   - materialized views (the Row(MV) strategy of Section 2.1), via
//     CreateMaterializedView and QueryUsingViews;
//   - c-tables plus mechanical query rewriting (the Row(Col) strategy of
//     Section 2.2), via BuildCTableDesign and NewRewriter;
//
// together with the column-store simulator used for the paper's ColOpt lower
// bound and the benchmark harness that regenerates the evaluation
// (Figure 2 and the three summary tables). See README.md for a tour and
// the examples/ directory for runnable programs.
package elephant

import (
	"oldelephant/internal/bench"
	"oldelephant/internal/colstore"
	"oldelephant/internal/core/ctable"
	"oldelephant/internal/core/matview"
	"oldelephant/internal/core/rewrite"
	"oldelephant/internal/engine"
	"oldelephant/internal/server"
	"oldelephant/internal/tpch"
	"oldelephant/internal/value"
)

// DB is a single-process database instance: a row store with clustered and
// secondary covering indexes, a SQL front end and per-query I/O statistics.
type DB struct {
	*engine.Engine
	views *matview.Manager
}

// Options configure a database instance. Every record carries the 9-byte
// header the paper quotes for its row store, and every query may reuse a
// plan from the shared plan cache (engine.QueryOptions.NoCache skips it).
type Options struct {
	// BufferPoolPages bounds the buffer pool: at most this many pages are in
	// memory (plus, for a durable database, those written since the last
	// checkpoint); a page outside the pool is read from the data file, or,
	// for an in-memory database, from a private spill file. 0 keeps every
	// page resident.
	BufferPoolPages int
	// DisableVectorized forces the row-at-a-time Volcano executor (kept for
	// differential testing). Batch-at-a-time execution on compressed
	// (Const/RLE/Dict) vectors is the default: the zero Options value runs
	// vectorized.
	DisableVectorized bool
	// Parallelism is the worker count for morsel-parallel execution of
	// vectorized plans. 0 selects runtime.GOMAXPROCS(0) — the default — and
	// 1 forces serial execution, reproducing single-threaded plans byte for
	// byte. See the README's "Parallel execution" section for the morsel
	// model and its determinism guarantees.
	Parallelism int
	// DataDir roots a durable database: pages live in a checksummed data
	// file, every statement commits through a write-ahead log with group
	// commit, and reopening the directory recovers to the last acknowledged
	// statement (see the README's "Durability" section). Empty keeps the
	// database in memory. Open ignores this field — use OpenDir.
	DataDir string
}

// Open creates an empty database.
func Open(opts Options) *DB {
	e := engine.New(opts.engineOptions(""))
	return &DB{Engine: e, views: matview.NewManager(e)}
}

// engineOptions converts the public options to the engine's, rooted at dir
// (empty = in memory).
func (opts Options) engineOptions(dir string) engine.Options {
	return engine.Options{
		BufferPoolPages:   opts.BufferPoolPages,
		DisableVectorized: opts.DisableVectorized,
		Parallelism:       opts.Parallelism,
		DataDir:           dir,
	}
}

// OpenDir creates or reopens a durable database rooted at dir (overriding
// opts.DataDir). Opening replays the write-ahead log, verifies page
// checksums and discards any torn tail, so a database that crashed at an
// arbitrary point recovers every acknowledged statement and nothing partial.
// Call Close to checkpoint and release the files.
func OpenDir(dir string, opts Options) (*DB, error) {
	e, err := engine.Open(opts.engineOptions(dir))
	if err != nil {
		return nil, err
	}
	return &DB{Engine: e, views: matview.NewManager(e)}, nil
}

// Close checkpoints a durable database and releases its files (an in-memory
// instance's only file is the spill file of a bounded buffer pool). The DB
// must not be used afterwards.
func (db *DB) Close() error { return db.Engine.Close() }

// Result is the outcome of a query: column labels, rows, the chosen physical
// plan and execution statistics (wall time, page I/O).
type Result = engine.Result

// Value is a SQL scalar value.
type Value = value.Value

// Row is one result row.
type Row = []value.Value

// LoadTPCH generates and loads the TPC-H tables used by the paper's workload
// (customer, orders, lineitem) at the given scale factor.
func (db *DB) LoadTPCH(scaleFactor float64) error {
	return tpch.NewGenerator(scaleFactor).LoadCore(db.Engine)
}

// LoadTPCHFull generates and loads all eight TPC-H tables.
func (db *DB) LoadTPCHFull(scaleFactor float64) error {
	return tpch.NewGenerator(scaleFactor).LoadAll(db.Engine)
}

// CreateMaterializedView defines and populates a materialized view
// (equivalent to executing CREATE MATERIALIZED VIEW name AS query).
func (db *DB) CreateMaterializedView(name, query string) error {
	return db.views.Create(name, query)
}

// QueryUsingViews answers a SELECT using a matching materialized view when
// one exists (the Row(MV) strategy); the boolean reports whether a view was
// used. Queries that no view can answer fall back to the base tables.
func (db *DB) QueryUsingViews(query string) (*Result, bool, error) {
	return db.views.Query(query)
}

// Views exposes the materialized-view manager for advanced use (refresh,
// inspection of the rewriting).
func (db *DB) Views() *matview.Manager { return db.views }

// CTableDesign is a materialized c-table design (the paper's D1, D2, D4).
type CTableDesign = ctable.Design

// BuildCTableDesign materializes the c-tables for the result of sourceSQL
// sorted by sortColumns (the Row(Col) physical design of Section 2.2.1).
// Each column of the design becomes a table named <name>_<column> with a
// clustered index on f and a covering secondary index on v.
func (db *DB) BuildCTableDesign(name, sourceSQL string, columns, sortColumns []string) (*CTableDesign, error) {
	return ctable.NewBuilder(db.Engine).Build(name, sourceSQL, columns, sortColumns)
}

// Rewriter mechanically translates base-table queries onto a c-table design
// (Section 2.2.2), including the range-collapse optimization of Figure 4(b).
type Rewriter = rewrite.Rewriter

// NewRewriter returns a rewriter for a design built by BuildCTableDesign.
func NewRewriter(design *CTableDesign) *Rewriter { return rewrite.New(design) }

// ColumnProjection is a compressed, column-wise stored projection used to
// compute the paper's ColOpt lower bound.
type ColumnProjection = colstore.Projection

// BuildColumnProjection materializes a compressed column-store projection of
// the result of sourceSQL (RLE / dictionary / raw encodings chosen per column).
func (db *DB) BuildColumnProjection(name, sourceSQL string, columns []string, kinds []value.Kind, sortColumns []string) (*ColumnProjection, error) {
	res, err := db.Engine.Query(sourceSQL)
	if err != nil {
		return nil, err
	}
	return colstore.BuildProjection(name, columns, kinds, sortColumns, res.Rows)
}

// ServerOptions configure the concurrent query-serving layer (core budget,
// admission queue bound, default timeout, slow-query threshold).
type ServerOptions = server.Options

// Server is the concurrent query-serving subsystem: sessions, prepared
// statements over the shared plan cache, admission control and metrics. See
// the server package for the session API and the wire protocol.
type Server = server.Server

// ServerSession is one client's serving-layer state.
type ServerSession = server.Session

// Serve wraps the database in a query server. The engine stays usable
// directly; the server adds sessions, admission control and metrics over the
// same catalog, buffer pool and plan cache. Use srv.Session() for in-process
// clients and srv.Serve(listener) for the TCP JSON protocol (cmd/elephantd
// is exactly that plus flags and signal handling).
func (db *DB) Serve(opts ServerOptions) *Server {
	return server.New(db.Engine, opts)
}

// Prepare parses a SELECT once into a reusable handle whose executions lease
// compiled plans from the shared plan cache (see Engine.QueryPrepared).
// Handles are interned by exact text: while one is referenced, preparing the
// same text again returns it without parsing. Point lookups on a unique key
// that differ only in their key literals share one parse tree and one cached
// plan (see Engine.Prepare).
func (db *DB) Prepare(sqlText string) (*engine.Prepared, error) {
	return db.Engine.Prepare(sqlText)
}

// Benchmark types re-exported for the harness that reproduces the paper's
// evaluation; see the bench package for details.
type (
	// BenchConfig configures the experiment harness.
	BenchConfig = bench.Config
	// BenchHarness owns the loaded database and all physical designs.
	BenchHarness = bench.Harness
	// Measurement is one (query, strategy, parameter) data point.
	Measurement = bench.Measurement
	// Strategy is one of Row, Row(MV), Row(Col), ColOpt.
	Strategy = bench.Strategy
)

// NewBenchHarness builds the full experimental setup of the paper: TPC-H at
// cfg.SF, the materialized views, the c-table designs D1/D2/D4 and the
// column-store projections for ColOpt.
func NewBenchHarness(cfg BenchConfig) (*BenchHarness, error) { return bench.NewHarness(cfg) }

// DefaultBenchConfig returns the configuration used by the checked-in benchmarks.
func DefaultBenchConfig() BenchConfig { return bench.DefaultConfig() }
