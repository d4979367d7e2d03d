// Package bench implements the experiment harness that reproduces the
// paper's evaluation: the seven queries of Figure 1 executed under the three
// row-store strategies (Row, Row(MV), Row(Col)) over a TPC-H database and
// set against the ColOpt bound, with the parameter sweeps behind Figure 2 and
// the three summary tables.
//
// Times are reported two ways: the wall-clock time of the in-memory engine,
// and a modeled disk time derived from the pager's sequential/random page
// counters (the paper's numbers are dominated by I/O volume, which the page
// counters capture exactly). ColOpt executes nothing: it is charged only the
// read of the compressed column pages a C-store plan needs, as in the paper.
package bench

import (
	"fmt"
	"time"

	"oldelephant/internal/colstore"
	"oldelephant/internal/core/ctable"
	"oldelephant/internal/core/matview"
	"oldelephant/internal/engine"
	"oldelephant/internal/storage"
	"oldelephant/internal/tpch"
	"oldelephant/internal/value"
)

// Strategy identifies one of the four evaluated execution strategies.
type Strategy string

// The four strategies of the paper's evaluation.
const (
	StrategyRow    Strategy = "Row"
	StrategyRowMV  Strategy = "Row(MV)"
	StrategyRowCol Strategy = "Row(Col)"
	StrategyColOpt Strategy = "ColOpt"
)

// Strategies lists all strategies in presentation order.
func Strategies() []Strategy {
	return []Strategy{StrategyRow, StrategyRowMV, StrategyRowCol, StrategyColOpt}
}

// DiskModel converts page I/O counts into a modeled disk time. The defaults
// approximate the 7200 RPM SATA drive of the paper's testbed: ~80 MB/s
// sequential bandwidth (≈0.1 ms per 8 KB page) and ~8 ms per random access.
type DiskModel struct {
	SeqReadPerPage  time.Duration
	RandReadPerPage time.Duration
}

// DefaultDiskModel returns the model described above. The random access is
// storage.RandomReadCost sequential pages, the price the planner uses too.
func DefaultDiskModel() DiskModel {
	seq := 100 * time.Microsecond
	return DiskModel{SeqReadPerPage: seq, RandReadPerPage: storage.RandomReadCost * seq}
}

// Time converts I/O statistics into modeled disk time.
func (m DiskModel) Time(io storage.IOStats) time.Duration {
	return time.Duration(io.SeqReads)*m.SeqReadPerPage + time.Duration(io.RandReads)*m.RandReadPerPage
}

// SeqTime charges every page read at the sequential rate.
func (m DiskModel) SeqTime(pages int64) time.Duration {
	return time.Duration(pages) * m.SeqReadPerPage
}

// Config controls the harness.
type Config struct {
	// SF is the TPC-H scale factor (the paper uses 10; in-memory runs use a
	// small fraction — ratios are what matter).
	SF float64
	// Selectivities are the fractions of the date range swept for Q1, Q3, Q4
	// and Q6 (Figure 2's x axis).
	Selectivities []float64
	// Disk is the I/O time model.
	Disk DiskModel
	// DisableVectorized runs the engine row-at-a-time instead of the default
	// batch-at-a-time executor; used for differential testing and the
	// row-vs-batch microbenchmarks.
	DisableVectorized bool
	// Parallelism is the morsel-parallel worker count of the engine's SQL
	// plans. 0 keeps the harness serial (unlike the engine's GOMAXPROCS
	// default: measurements compare against the paper's single-core setting
	// unless parallelism is asked for); values > 1 enable parallel execution.
	Parallelism int
	// FS is the filesystem a bounded buffer pool spills to (engine
	// Options.FS); nil is the real one.
	FS storage.FS
}

// DefaultConfig returns the configuration used by the checked-in benchmarks.
func DefaultConfig() Config {
	return Config{
		SF:            0.01,
		Selectivities: []float64{0.01, 0.1, 0.5, 1.0},
		Disk:          DefaultDiskModel(),
	}
}

// Harness holds the loaded database, the physical designs of every strategy
// and the column-store projections used for the ColOpt bound.
type Harness struct {
	Config  Config
	Engine  *engine.Engine
	Views   *matview.Manager
	Designs map[string]*ctable.Design
	Proj    map[string]*colstore.Projection

	dateMin, dateMax           value.Value // l_shipdate range
	orderDateMin, orderDateMax value.Value
}

// NewHarness loads TPC-H at the configured scale factor and builds the
// physical designs of all strategies:
//
//	Row      — base tables with primary (clustered) indexes only;
//	Row(MV)  — the generalized materialized views MV1-3, MV4-6 and MV7;
//	Row(Col) — c-table designs D1, D2 and D4 with f/v indexes;
//	ColOpt   — compressed column projections for D1, D2 and D4.
func NewHarness(cfg Config) (*Harness, error) {
	if len(cfg.Selectivities) == 0 {
		cfg.Selectivities = DefaultConfig().Selectivities
	}
	if cfg.Disk == (DiskModel{}) {
		cfg.Disk = DefaultDiskModel()
	}
	if cfg.SF <= 0 {
		cfg.SF = DefaultConfig().SF
	}
	if cfg.Parallelism < 1 {
		cfg.Parallelism = 1
	}
	e := engine.New(engine.Options{
		DisableVectorized: cfg.DisableVectorized,
		Parallelism:       cfg.Parallelism,
		FS:                cfg.FS,
	})
	gen := tpch.NewGenerator(cfg.SF)
	if err := gen.LoadCore(e); err != nil {
		return nil, err
	}
	h := &Harness{
		Config:  cfg,
		Engine:  e,
		Views:   matview.NewManager(e),
		Designs: make(map[string]*ctable.Design),
		Proj:    make(map[string]*colstore.Projection),
	}
	if err := h.buildDesigns(); err != nil {
		return nil, err
	}
	if err := h.loadDateRanges(); err != nil {
		return nil, err
	}
	return h, nil
}

// projectionSources defines the three projections of the C-store schema the
// paper adopts from the original C-store evaluation.
var projectionSources = map[string]struct {
	sql      string
	columns  []string
	kinds    []value.Kind
	sortCols []string
}{
	"D1": {
		sql:      "SELECT l_shipdate, l_suppkey FROM lineitem",
		columns:  []string{"l_shipdate", "l_suppkey"},
		kinds:    []value.Kind{value.KindDate, value.KindInt},
		sortCols: []string{"l_shipdate", "l_suppkey"},
	},
	"D2": {
		sql:      "SELECT o_orderdate, l_suppkey, l_shipdate FROM lineitem, orders WHERE l_orderkey = o_orderkey",
		columns:  []string{"o_orderdate", "l_suppkey", "l_shipdate"},
		kinds:    []value.Kind{value.KindDate, value.KindInt, value.KindDate},
		sortCols: []string{"o_orderdate", "l_suppkey"},
	},
	"D4": {
		sql:      "SELECT l_returnflag, c_nationkey, l_extendedprice FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey",
		columns:  []string{"l_returnflag", "c_nationkey", "l_extendedprice"},
		kinds:    []value.Kind{value.KindString, value.KindInt, value.KindFloat},
		sortCols: []string{"l_returnflag"},
	},
}

// viewDefinitions are the generalized materialized views of Section 2.1.
var viewDefinitions = map[string]string{
	// MV for Q1, Q2, Q3 (the paper's MV2,3; it answers Q1 as well).
	"mv23": "SELECT l_shipdate, l_suppkey, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipdate, l_suppkey",
	// MV for Q4 alone (grouped by order date only, so it is tiny — this is why
	// the paper reports Row(MV) beating ColOpt by 250x on Q4).
	"mv4": "SELECT o_orderdate, MAX(l_shipdate) AS maxship, COUNT(*) AS cnt " +
		"FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderdate",
	// MV for Q5 and Q6 (also matches Q4, but the dedicated view is smaller).
	"mv456": "SELECT o_orderdate, l_suppkey, MAX(l_shipdate) AS maxship, COUNT(*) AS cnt " +
		"FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderdate, l_suppkey",
	// MV for Q7.
	"mv7": "SELECT c_nationkey, l_returnflag, SUM(l_extendedprice) AS revenue " +
		"FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey " +
		"GROUP BY l_returnflag, c_nationkey",
}

func (h *Harness) buildDesigns() error {
	builder := ctable.NewBuilder(h.Engine)
	for name, src := range projectionSources {
		design, err := builder.Build(name, src.sql, src.columns, src.sortCols)
		if err != nil {
			return fmt.Errorf("bench: building c-tables for %s: %w", name, err)
		}
		h.Designs[name] = design
		res, err := h.Engine.Query(src.sql)
		if err != nil {
			return err
		}
		proj, err := colstore.BuildProjection(name, src.columns, src.kinds, src.sortCols, res.Rows)
		if err != nil {
			return fmt.Errorf("bench: building projection %s: %w", name, err)
		}
		h.Proj[name] = proj
	}
	for name, def := range viewDefinitions {
		if err := h.Views.Create(name, def); err != nil {
			return fmt.Errorf("bench: creating view %s: %w", name, err)
		}
	}
	return nil
}

func (h *Harness) loadDateRanges() error {
	res, err := h.Engine.Query("SELECT MIN(l_shipdate), MAX(l_shipdate) FROM lineitem")
	if err != nil {
		return err
	}
	h.dateMin, h.dateMax = res.Rows[0][0], res.Rows[0][1]
	res, err = h.Engine.Query("SELECT MIN(o_orderdate), MAX(o_orderdate) FROM orders")
	if err != nil {
		return err
	}
	h.orderDateMin, h.orderDateMax = res.Rows[0][0], res.Rows[0][1]
	return nil
}

// paramDate converts a target selectivity into the date constant D such that
// "column > D" selects roughly that fraction of the column's range.
func paramDate(min, max value.Value, selectivity float64) value.Value {
	if selectivity >= 1 {
		return value.NewDate(min.Int() - 1)
	}
	span := max.Int() - min.Int()
	return value.NewDate(min.Int() + int64(float64(span)*(1-selectivity)))
}

// midDate returns the date at the middle of a column's range (the fixed
// parameter used for the equality queries Q2 and Q5).
func midDate(min, max value.Value) value.Value {
	return value.NewDate((min.Int() + max.Int()) / 2)
}

// existingDate returns the largest value of the column that is <= target, so
// that equality-parameter queries (Q2, Q5) always select at least one row
// even at tiny scale factors.
func (h *Harness) existingDate(table, column string, target value.Value) value.Value {
	q := fmt.Sprintf("SELECT MAX(%s) FROM %s WHERE %s <= DATE '%s'", column, table, column, target)
	res, err := h.Engine.Query(q)
	if err != nil || len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
		return target
	}
	return res.Rows[0][0]
}
