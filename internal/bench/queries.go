package bench

import (
	"fmt"
	"strings"
	"time"

	"oldelephant/internal/colstore"
	"oldelephant/internal/core/rewrite"
	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/expr"
	"oldelephant/internal/plan"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// QueryID names one of the seven workload queries of Figure 1.
type QueryID string

// The seven queries.
const (
	Q1 QueryID = "Q1"
	Q2 QueryID = "Q2"
	Q3 QueryID = "Q3"
	Q4 QueryID = "Q4"
	Q5 QueryID = "Q5"
	Q6 QueryID = "Q6"
	Q7 QueryID = "Q7"
)

// Queries lists the workload in order.
func Queries() []QueryID { return []QueryID{Q1, Q2, Q3, Q4, Q5, Q6, Q7} }

// colOptPlan describes the executor plan that answers a workload query
// directly on the compressed projection: filter one column against the
// query parameter, group by one column, compute one aggregate.
type colOptPlan struct {
	filterCol string
	filterEq  bool // equality filter; false means strictly-greater
	groupCol  string
	agg       exec.AggKind
	aggArg    string // aggregate argument column; "" for COUNT(*)
}

// querySpec describes one workload query: how to build its SQL for a given
// parameter, which c-table design and column projection answer it, which
// columns a C-store plan must read, the ColOpt executor plan, and whether
// the query is swept over selectivities (Figure 2) or has a fixed parameter.
type querySpec struct {
	id          QueryID
	description string
	design      string // D1, D2 or D4
	colOptCols  []string
	swept       bool
	colOpt      colOptPlan
	// paramFor resolves the query parameter for a target selectivity — the
	// single source of truth shared by the SQL strategies and the ColOpt
	// executor plan.
	paramFor func(h *Harness, sel float64) value.Value
	// sqlFor renders the query and its projection fraction for a parameter
	// already resolved by paramFor.
	sqlFor func(h *Harness, d value.Value) (query string, param string, colFraction float64)
}

// resolve computes the spec's parameter once and renders the SQL for it.
func (s querySpec) resolve(h *Harness, sel float64) (d value.Value, query, param string, frac float64) {
	d = s.paramFor(h, sel)
	query, param, frac = s.sqlFor(h, d)
	return d, query, param, frac
}

func (h *Harness) specs() map[QueryID]querySpec {
	return map[QueryID]querySpec{
		Q1: {
			id: Q1, description: "count of items shipped each day after D",
			design: "D1", colOptCols: []string{"l_shipdate"}, swept: true,
			colOpt: colOptPlan{filterCol: "l_shipdate", groupCol: "l_shipdate", agg: exec.AggCountStar},
			paramFor: func(h *Harness, sel float64) value.Value {
				return paramDate(h.dateMin, h.dateMax, sel)
			},
			sqlFor: func(h *Harness, d value.Value) (string, string, float64) {
				q := fmt.Sprintf("SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '%s' GROUP BY l_shipdate", d)
				return q, d.String(), h.fraction("D1", d)
			},
		},
		Q2: {
			id: Q2, description: "count of items shipped for each supplier on day D",
			design: "D1", colOptCols: []string{"l_shipdate", "l_suppkey"}, swept: false,
			colOpt: colOptPlan{filterCol: "l_shipdate", filterEq: true, groupCol: "l_suppkey", agg: exec.AggCountStar},
			paramFor: func(h *Harness, _ float64) value.Value {
				return h.existingDate("lineitem", "l_shipdate", midDate(h.dateMin, h.dateMax))
			},
			sqlFor: func(h *Harness, d value.Value) (string, string, float64) {
				q := fmt.Sprintf("SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = DATE '%s' GROUP BY l_suppkey", d)
				return q, d.String(), h.eqFraction("D1", d)
			},
		},
		Q3: {
			id: Q3, description: "count of items shipped for each supplier after day D",
			design: "D1", colOptCols: []string{"l_shipdate", "l_suppkey"}, swept: true,
			colOpt: colOptPlan{filterCol: "l_shipdate", groupCol: "l_suppkey", agg: exec.AggCountStar},
			paramFor: func(h *Harness, sel float64) value.Value {
				return paramDate(h.dateMin, h.dateMax, sel)
			},
			sqlFor: func(h *Harness, d value.Value) (string, string, float64) {
				q := fmt.Sprintf("SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '%s' GROUP BY l_suppkey", d)
				return q, d.String(), h.fraction("D1", d)
			},
		},
		Q4: {
			id: Q4, description: "latest shipdate of items ordered after each day D",
			design: "D2", colOptCols: []string{"o_orderdate", "l_shipdate"}, swept: true,
			colOpt: colOptPlan{filterCol: "o_orderdate", groupCol: "o_orderdate", agg: exec.AggMax, aggArg: "l_shipdate"},
			paramFor: func(h *Harness, sel float64) value.Value {
				return paramDate(h.orderDateMin, h.orderDateMax, sel)
			},
			sqlFor: func(h *Harness, d value.Value) (string, string, float64) {
				q := fmt.Sprintf("SELECT o_orderdate, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '%s' GROUP BY o_orderdate", d)
				return q, d.String(), h.fraction("D2", d)
			},
		},
		Q5: {
			id: Q5, description: "latest shipdate per supplier for orders made on day D",
			design: "D2", colOptCols: []string{"o_orderdate", "l_suppkey", "l_shipdate"}, swept: false,
			colOpt: colOptPlan{filterCol: "o_orderdate", filterEq: true, groupCol: "l_suppkey", agg: exec.AggMax, aggArg: "l_shipdate"},
			paramFor: func(h *Harness, _ float64) value.Value {
				return h.existingDate("orders", "o_orderdate", midDate(h.orderDateMin, h.orderDateMax))
			},
			sqlFor: func(h *Harness, d value.Value) (string, string, float64) {
				q := fmt.Sprintf("SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate = DATE '%s' GROUP BY l_suppkey", d)
				return q, d.String(), h.eqFraction("D2", d)
			},
		},
		Q6: {
			id: Q6, description: "latest shipdate per supplier for orders made after day D",
			design: "D2", colOptCols: []string{"o_orderdate", "l_suppkey", "l_shipdate"}, swept: true,
			colOpt: colOptPlan{filterCol: "o_orderdate", groupCol: "l_suppkey", agg: exec.AggMax, aggArg: "l_shipdate"},
			paramFor: func(h *Harness, sel float64) value.Value {
				return paramDate(h.orderDateMin, h.orderDateMax, sel)
			},
			sqlFor: func(h *Harness, d value.Value) (string, string, float64) {
				q := fmt.Sprintf("SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '%s' GROUP BY l_suppkey", d)
				return q, d.String(), h.fraction("D2", d)
			},
		},
		Q7: {
			id: Q7, description: "lost revenue per nation for returned parts",
			design: "D4", colOptCols: []string{"l_returnflag", "c_nationkey", "l_extendedprice"}, swept: false,
			colOpt: colOptPlan{filterCol: "l_returnflag", filterEq: true, groupCol: "c_nationkey", agg: exec.AggSum, aggArg: "l_extendedprice"},
			paramFor: func(h *Harness, _ float64) value.Value {
				return value.NewString("R")
			},
			sqlFor: func(h *Harness, d value.Value) (string, string, float64) {
				q := fmt.Sprintf("SELECT c_nationkey, SUM(l_extendedprice) FROM lineitem, orders, customer "+
					"WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND l_returnflag = '%s' GROUP BY c_nationkey", d.S)
				frac, _ := h.Proj["D4"].LeadingRangeFraction(d, d, true, true)
				return q, d.String(), frac
			},
		},
	}
}

// colIndexIn returns the position of col in cols, or -1.
func colIndexIn(cols []string, col string) int {
	for i, c := range cols {
		if strings.EqualFold(c, col) {
			return i
		}
	}
	return -1
}

// ColOptOperator builds the executor plan that answers a workload query
// directly on the compressed projection: ProjectionScan → Filter →
// HashAggregate, the same operators SQL plans use, on compressed
// vectors.
// This replaces the bespoke colstore execution path on the query hot path:
// ColOpt is now just another executor configuration.
func (h *Harness) ColOptOperator(q QueryID, selectivity float64) (exec.Operator, error) {
	spec, ok := h.specs()[q]
	if !ok {
		return nil, fmt.Errorf("bench: unknown query %q", q)
	}
	return h.colOptOperator(spec, spec.paramFor(h, selectivity))
}

// colOptOperator builds the ColOpt plan for an already-resolved parameter.
func (h *Harness) colOptOperator(spec querySpec, param value.Value) (exec.Operator, error) {
	scan, err := colstore.NewProjectionScan(h.Proj[spec.design], spec.colOptCols)
	if err != nil {
		return nil, err
	}
	cp := spec.colOpt
	fIdx := colIndexIn(spec.colOptCols, cp.filterCol)
	gIdx := colIndexIn(spec.colOptCols, cp.groupCol)
	if fIdx < 0 || gIdx < 0 {
		return nil, fmt.Errorf("bench: %s ColOpt plan references columns outside the projection scan", spec.id)
	}
	op := expr.OpGt
	if cp.filterEq {
		op = expr.OpEq
	}
	pred := expr.NewBinary(op, expr.NewColumn(fIdx, cp.filterCol), expr.NewConst(param))
	filtered := exec.NewFilter(scan, pred)
	agg := exec.AggSpec{Kind: cp.agg, Name: cp.agg.String()}
	if cp.aggArg != "" {
		aIdx := colIndexIn(spec.colOptCols, cp.aggArg)
		if aIdx < 0 {
			return nil, fmt.Errorf("bench: %s ColOpt aggregate argument %q outside the projection scan", spec.id, cp.aggArg)
		}
		agg.Arg = expr.NewColumn(aIdx, cp.aggArg)
	}
	// The ColOpt plan rides the same morsel-parallel rewrite as SQL plans:
	// the projection scan partitions into compressed row windows, so RLE and
	// dictionary morsels cross worker boundaries without decompressing.
	root, _ := plan.Parallelize(exec.NewHashAggregate(filtered, []int{gIdx}, []exec.AggSpec{agg}), h.Config.Parallelism)
	return root, nil
}

// fraction computes the fraction of a projection's rows whose leading sort
// column is strictly greater than d.
func (h *Harness) fraction(design string, d value.Value) float64 {
	frac, err := h.Proj[design].LeadingRangeFraction(d, value.Null(), false, true)
	if err != nil {
		return 1
	}
	return frac
}

// eqFraction computes the fraction equal to d.
func (h *Harness) eqFraction(design string, d value.Value) float64 {
	frac, err := h.Proj[design].LeadingRangeFraction(d, d, true, true)
	if err != nil {
		return 1
	}
	return frac
}

// Measurement is the outcome of running one query under one strategy.
type Measurement struct {
	Query       QueryID
	Strategy    Strategy
	Selectivity float64
	Param       string
	Rows        int
	Wall        time.Duration
	IO          storage.IOStats
	PagesRead   int64
	// RowsPerSec is the result-row delivery rate (rows returned per
	// wall-clock second), recorded for consumers of Measurement; the
	// row-vs-batch executor throughput comparison itself lives in the
	// microbenchmarks (vector_bench_test.go), which measure scanned rows.
	RowsPerSec  float64
	ModeledDisk time.Duration
	// Total is the modeled end-to-end time: modeled disk time plus the CPU
	// (wall) time of execution. ColOpt by definition has no CPU component.
	Total time.Duration
	Plan  string
	// EstPages is the planner's cold page estimate for a single-table plan
	// (plan.Plan.EstPages), nil otherwise and for ColOpt.
	EstPages *plan.PageEstimate
	// Matched reports whether Row(MV) found a matching view (always true for
	// the workload; kept for diagnostics).
	Matched bool
}

// strategySQL resolves the SQL text actually executed for one of the
// row-engine strategies: the base-table query for Row, the view rewriting for
// Row(MV), the c-table rewriting for Row(Col). ColOpt has no SQL (it is a
// modeled lower bound).
func (h *Harness) strategySQL(q QueryID, spec querySpec, strategy Strategy, query string) (string, error) {
	switch strategy {
	case StrategyRow:
		return query, nil
	case StrategyRowMV:
		stmtSQL, matched, err := h.Views.RewriteSQL(query)
		if err != nil {
			return "", err
		}
		if !matched {
			return "", fmt.Errorf("bench: no materialized view matches %s", q)
		}
		return stmtSQL, nil
	case StrategyRowCol:
		rw := rewrite.New(h.Designs[spec.design])
		return rw.RewriteSQL(query)
	default:
		return "", fmt.Errorf("bench: unknown strategy %q", strategy)
	}
}

// Run executes one query under one strategy at the given selectivity
// (ignored for the fixed-parameter queries) with a cold buffer pool.
func (h *Harness) Run(q QueryID, strategy Strategy, selectivity float64) (Measurement, error) {
	spec, ok := h.specs()[q]
	if !ok {
		return Measurement{}, fmt.Errorf("bench: unknown query %q", q)
	}
	d, query, param, frac := spec.resolve(h, selectivity)
	m := Measurement{Query: q, Strategy: strategy, Selectivity: selectivity, Param: param, Matched: true}

	if strategy == StrategyColOpt {
		pages, err := h.Proj[spec.design].ColOptPages(spec.colOptCols, frac)
		if err != nil {
			return Measurement{}, err
		}
		// Even the ideal C-store pays one random access to reach the start of
		// each column it reads; the remaining pages stream sequentially.
		cols := int64(len(spec.colOptCols))
		if pages < cols {
			pages = cols
		}
		m.PagesRead = pages
		m.IO = storage.IOStats{PageReads: pages, SeqReads: pages - cols, RandReads: cols}
		m.ModeledDisk = h.Config.Disk.Time(m.IO)
		m.Total = m.ModeledDisk
		// Execute the plan through the shared batch executor on compressed
		// vectors. The modeled disk time stays the comparison metric (the
		// projections live in memory, so the scan performs no pager I/O), but
		// the execution yields real rows — the differential tests hold them
		// against the row engine — and a real CPU wall time.
		op, err := h.colOptOperator(spec, d)
		if err != nil {
			return Measurement{}, err
		}
		start := time.Now()
		rows, err := exec.DrainBatches(nil, op)
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: %s under %s: %w", q, strategy, err)
		}
		m.Wall = time.Since(start)
		m.Rows = len(rows)
		if secs := m.Wall.Seconds(); secs > 0 {
			m.RowsPerSec = float64(m.Rows) / secs
		}
		m.Plan = fmt.Sprintf("ColOpt(scan %s of %s, fraction %.4f, compressed vectors)",
			strings.Join(spec.colOptCols, ","), spec.design, frac)
		return m, nil
	}

	sqlText, err := h.strategySQL(q, spec, strategy, query)
	if err != nil {
		return Measurement{}, err
	}

	// Every measured run pays lex/parse/plan, the way every prior number
	// was taken: the plan cache is for the serving layer.
	h.Engine.ResetBufferPool()
	res, err := h.Engine.QueryWith(engine.QueryOptions{NoCache: true}, sqlText)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %s under %s: %w\nSQL: %s", q, strategy, err, sqlText)
	}
	m.Rows = len(res.Rows)
	m.Wall = res.Stats.Wall
	if secs := m.Wall.Seconds(); secs > 0 {
		m.RowsPerSec = float64(m.Rows) / secs
	}
	m.IO = res.Stats.IO
	m.EstPages = res.EstPages
	m.PagesRead = res.Stats.IO.PageReads
	m.ModeledDisk = h.Config.Disk.Time(res.Stats.IO)
	// The comparison metric is the modeled disk time: the paper's ratios are
	// driven by I/O volume, and the CPU time of this Go interpreter is not
	// comparable to a commercial compiled executor (see EXPERIMENTS.md). Wall
	// time is reported alongside for reference.
	m.Total = m.ModeledDisk
	m.Plan = res.Plan
	return m, nil
}

// RunAll measures every strategy for one query at one selectivity.
func (h *Harness) RunAll(q QueryID, selectivity float64) ([]Measurement, error) {
	var out []Measurement
	for _, s := range Strategies() {
		m, err := h.Run(q, s, selectivity)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Figure2 reproduces Figure 2: every query, every strategy, swept over the
// configured selectivities (fixed-parameter queries appear once).
func (h *Harness) Figure2() ([]Measurement, error) {
	var out []Measurement
	for _, q := range Queries() {
		spec := h.specs()[q]
		sels := h.Config.Selectivities
		if !spec.swept {
			sels = []float64{0}
		}
		for _, sel := range sels {
			ms, err := h.RunAll(q, sel)
			if err != nil {
				return nil, err
			}
			out = append(out, ms...)
		}
	}
	return out, nil
}

// defaultSelectivity is the sweep point used for the summary ratio tables
// (10%, the middle of the paper's swept range).
const defaultSelectivity = 0.1

// RatioRow is one entry of a per-query ratio table.
type RatioRow struct {
	Query QueryID
	// Ratio is strategy time divided by reference time (values above 1 mean
	// the strategy is slower than the reference).
	Ratio float64
	// StrategyTime and ReferenceTime are the underlying modeled totals.
	StrategyTime, ReferenceTime time.Duration
}

// ratioTable measures both strategies for every query and reports
// strategy/reference total-time ratios.
func (h *Harness) ratioTable(strategy, reference Strategy) ([]RatioRow, error) {
	var out []RatioRow
	for _, q := range Queries() {
		ms, err := h.Run(q, strategy, defaultSelectivity)
		if err != nil {
			return nil, err
		}
		mr, err := h.Run(q, reference, defaultSelectivity)
		if err != nil {
			return nil, err
		}
		ratio := float64(ms.Total) / float64(mr.Total)
		out = append(out, RatioRow{Query: q, Ratio: ratio, StrategyTime: ms.Total, ReferenceTime: mr.Total})
	}
	return out, nil
}

// SpeedupTable reproduces the Section 1 table: the speedup of ColOpt over the
// plain Row strategy per query.
func (h *Harness) SpeedupTable() ([]RatioRow, error) {
	rows, err := h.ratioTable(StrategyRow, StrategyColOpt)
	if err != nil {
		return nil, err
	}
	// Report Row/ColOpt, i.e. how many times faster the C-store lower bound is.
	return rows, nil
}

// MVTable reproduces the Section 2.1 table: Row(MV) relative to ColOpt
// (values below 1 mean the materialized view beats the C-store lower bound).
func (h *Harness) MVTable() ([]RatioRow, error) {
	return h.ratioTable(StrategyRowMV, StrategyColOpt)
}

// CTableTable reproduces the Section 2.2.4 table: Row(Col) slowdown relative
// to ColOpt.
func (h *Harness) CTableTable() ([]RatioRow, error) {
	return h.ratioTable(StrategyRowCol, StrategyColOpt)
}
