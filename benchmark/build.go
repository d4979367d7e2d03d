package main

import (
	"fmt"
	"time"

	elephant "oldelephant"
)

// Constants, not flags: the scale, the pool and the caller count define what
// the numbers mean, so a run cannot be made with others. The scale is a field
// only so the smoke test can set a smaller one.
const (
	scaleFactor     = 0.02 // 30,000 orders, about 120,000 line items
	bufferPoolPages = 512  // lineitem's leaves are about 3.4 times this
	maxCallers      = 4    // serve_mixed: min(nproc, maxCallers) connections
)

// engineOptions is the engine as a user gets it from elephant.Open(Options{})
// (vectorized, compressed, Parallelism = GOMAXPROCS, plan cache on) plus a
// buffer pool smaller than the base tables.
func engineOptions() elephant.Options {
	return elephant.Options{BufferPoolPages: bufferPoolPages}
}

// database is one workload's built state.
type database struct {
	workload string
	db       *elephant.DB
	stmts    []statement
	designs  map[string]*elephant.CTableDesign

	basePages int // data pages after loading the base tables
	dataPages int // data pages after set-up

	loadS, viewsS, ctablesS float64 // set-up, by part
}

// buildPaper loads the TPC-H core tables and the physical design of one of
// the paper's strategies, then renders the seed's statements.
func buildPaper(workload string, sf float64, seed int64) (*database, error) {
	d := &database{workload: workload, db: elephant.Open(engineOptions())}
	start := time.Now()
	if err := d.db.LoadTPCH(sf); err != nil {
		return nil, fmt.Errorf("load TPC-H: %w", err)
	}
	d.loadS = time.Since(start).Seconds()
	d.basePages = d.db.TotalDataPages()

	switch workload {
	case "paper_mv":
		start = time.Now()
		for _, v := range paperViews {
			if err := d.db.CreateMaterializedView(v.name, v.sql); err != nil {
				return nil, fmt.Errorf("create view %s: %w", v.name, err)
			}
		}
		d.viewsS = time.Since(start).Seconds()
	case "paper_rowcol":
		start = time.Now()
		d.designs = make(map[string]*elephant.CTableDesign)
		for _, def := range paperDesigns {
			design, err := d.db.BuildCTableDesign(def.name, def.sql, def.columns, def.sortCols)
			if err != nil {
				return nil, fmt.Errorf("build c-tables %s: %w", def.name, err)
			}
			d.designs[def.name] = design
		}
		d.ctablesS = time.Since(start).Seconds()
	}
	d.dataPages = d.db.TotalDataPages()

	ranges, err := readDateRanges(d.db)
	if err != nil {
		return nil, fmt.Errorf("read date ranges: %w", err)
	}
	d.stmts = statements(ranges, seed)
	return d, nil
}

// errNoView marks a paper_mv statement that no view answered: a failed
// operation, because the workload exists to measure view matching.
var errNoView = fmt.Errorf("no materialized view matched")

// run executes one statement the way the workload's strategy does, as one
// call sequence into the program's public functions.
func (d *database) run(s *statement) (*elephant.Result, error) {
	switch d.workload {
	case "paper_mv":
		res, used, err := d.db.QueryUsingViews(s.sql)
		if err == nil && !used {
			err = errNoView
		}
		return res, err
	case "paper_rowcol":
		rewritten, err := elephant.NewRewriter(d.designs[s.query.design]).RewriteSQL(s.sql)
		if err != nil {
			return nil, err
		}
		return d.db.Query(rewritten)
	default:
		return d.db.Query(s.sql)
	}
}
