package bench

import (
	"fmt"
	"time"

	"oldelephant/internal/core/rewrite"
	"oldelephant/internal/engine"
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

// querySpec describes one workload query: how to build its SQL for a
// target selectivity, which c-table design and column projection answer it,
// which columns a C-store plan must read, and whether the query is swept
// over selectivities (Figure 2) or has a fixed parameter.
type querySpec struct {
	id          QueryID
	description string
	design      string // D1, D2 or D4
	colOptCols  []string
	swept       bool
	// resolve picks the query parameter for a target selectivity and renders
	// the query, the parameter and the fraction of the projection's rows it
	// selects.
	resolve func(h *Harness, sel float64) (query, param string, colFraction float64)
}

func (h *Harness) specs() map[QueryID]querySpec {
	return map[QueryID]querySpec{
		Q1: {
			id: Q1, description: "count of items shipped each day after D",
			design: "D1", colOptCols: []string{"l_shipdate"}, swept: true,
			resolve: func(h *Harness, sel float64) (string, string, float64) {
				d := paramDate(h.dateMin, h.dateMax, sel)
				q := fmt.Sprintf("SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '%s' GROUP BY l_shipdate", d)
				return q, d.String(), h.fraction("D1", d)
			},
		},
		Q2: {
			id: Q2, description: "count of items shipped for each supplier on day D",
			design: "D1", colOptCols: []string{"l_shipdate", "l_suppkey"}, swept: false,
			resolve: func(h *Harness, _ float64) (string, string, float64) {
				d := h.existingDate("lineitem", "l_shipdate", midDate(h.dateMin, h.dateMax))
				q := fmt.Sprintf("SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = DATE '%s' GROUP BY l_suppkey", d)
				return q, d.String(), h.eqFraction("D1", d)
			},
		},
		Q3: {
			id: Q3, description: "count of items shipped for each supplier after day D",
			design: "D1", colOptCols: []string{"l_shipdate", "l_suppkey"}, swept: true,
			resolve: func(h *Harness, sel float64) (string, string, float64) {
				d := paramDate(h.dateMin, h.dateMax, sel)
				q := fmt.Sprintf("SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '%s' GROUP BY l_suppkey", d)
				return q, d.String(), h.fraction("D1", d)
			},
		},
		Q4: {
			id: Q4, description: "latest shipdate of items ordered after each day D",
			design: "D2", colOptCols: []string{"o_orderdate", "l_shipdate"}, swept: true,
			resolve: func(h *Harness, sel float64) (string, string, float64) {
				d := paramDate(h.orderDateMin, h.orderDateMax, sel)
				q := fmt.Sprintf("SELECT o_orderdate, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '%s' GROUP BY o_orderdate", d)
				return q, d.String(), h.fraction("D2", d)
			},
		},
		Q5: {
			id: Q5, description: "latest shipdate per supplier for orders made on day D",
			design: "D2", colOptCols: []string{"o_orderdate", "l_suppkey", "l_shipdate"}, swept: false,
			resolve: func(h *Harness, _ float64) (string, string, float64) {
				d := h.existingDate("orders", "o_orderdate", midDate(h.orderDateMin, h.orderDateMax))
				q := fmt.Sprintf("SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate = DATE '%s' GROUP BY l_suppkey", d)
				return q, d.String(), h.eqFraction("D2", d)
			},
		},
		Q6: {
			id: Q6, description: "latest shipdate per supplier for orders made after day D",
			design: "D2", colOptCols: []string{"o_orderdate", "l_suppkey", "l_shipdate"}, swept: true,
			resolve: func(h *Harness, sel float64) (string, string, float64) {
				d := paramDate(h.orderDateMin, h.orderDateMax, sel)
				q := fmt.Sprintf("SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '%s' GROUP BY l_suppkey", d)
				return q, d.String(), h.fraction("D2", d)
			},
		},
		Q7: {
			id: Q7, description: "lost revenue per nation for returned parts",
			design: "D4", colOptCols: []string{"l_returnflag", "c_nationkey", "l_extendedprice"}, swept: false,
			resolve: func(h *Harness, _ float64) (string, string, float64) {
				d := value.NewString("R")
				q := fmt.Sprintf("SELECT c_nationkey, SUM(l_extendedprice) FROM lineitem, orders, customer "+
					"WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND l_returnflag = '%s' GROUP BY c_nationkey", d.S)
				return q, d.String(), h.eqFraction("D4", d)
			},
		},
	}
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

// Measurement is the outcome of running one query under one strategy. A
// ColOpt measurement is a modeled bound and carries PagesRead, IO,
// ModeledDisk and Total only.
type Measurement struct {
	Query       QueryID
	Strategy    Strategy
	Selectivity float64
	Param       string
	Rows        int
	Wall        time.Duration
	IO          storage.IOStats
	PagesRead   int64
	ModeledDisk time.Duration
	// Total is the modeled end-to-end time: the modeled disk time, for every
	// strategy. The CPU time of this Go executor is not comparable to a
	// commercial compiled one, and the paper's ratios are driven by I/O
	// volume, so Wall is reported beside it but not charged.
	Total time.Duration
	Plan  string
	// EstPages is the planner's cold page estimate for a single-table plan
	// (plan.Plan.EstPages), nil otherwise and for ColOpt.
	EstPages *plan.PageEstimate
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
	query, param, frac := spec.resolve(h, selectivity)
	m := Measurement{Query: q, Strategy: strategy, Selectivity: selectivity, Param: param}

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
	m.IO = res.Stats.IO
	m.EstPages = res.EstPages
	m.PagesRead = res.Stats.IO.PageReads
	m.ModeledDisk = h.Config.Disk.Time(res.Stats.IO)
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

// RatioRows measures strategy and ColOpt for every query and reports
// strategy/ColOpt total-time ratios.
func (h *Harness) RatioRows(strategy Strategy) ([]RatioRow, error) {
	var out []RatioRow
	for _, q := range Queries() {
		ms, err := h.Run(q, strategy, defaultSelectivity)
		if err != nil {
			return nil, err
		}
		mr, err := h.Run(q, StrategyColOpt, defaultSelectivity)
		if err != nil {
			return nil, err
		}
		ratio := float64(ms.Total) / float64(mr.Total)
		out = append(out, RatioRow{Query: q, Ratio: ratio, StrategyTime: ms.Total, ReferenceTime: mr.Total})
	}
	return out, nil
}
