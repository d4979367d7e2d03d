package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// harnessCache memoizes the expensive TPC-H harness builds across the
// differential tests; every cached harness holds identical deterministic
// data and is only ever queried, never mutated.
var (
	harnessCacheMu sync.Mutex
	harnessCache   = map[string]*Harness{}
)

func cachedHarness(t *testing.T, mutate func(*Config)) *Harness {
	t.Helper()
	cfg := DefaultConfig()
	mutate(&cfg)
	key := fmt.Sprintf("vec=%v par=%d", !cfg.DisableVectorized, cfg.Parallelism)
	harnessCacheMu.Lock()
	defer harnessCacheMu.Unlock()
	if h, ok := harnessCache[key]; ok {
		return h
	}
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	harnessCache[key] = h
	return h
}

// executorModes are the two executor configurations the differential tests
// hold against each other: row-at-a-time Volcano and batch execution on
// compressed (Const/RLE/Dict) vectors — the default.
func executorModes(t *testing.T) map[string]*Harness {
	t.Helper()
	modes := map[string]*Harness{
		"row":               cachedHarness(t, func(c *Config) { c.DisableVectorized = true }),
		"compressed-vector": cachedHarness(t, func(c *Config) {}),
	}
	// Pin the knob contract so a misconfigured harness cannot silently turn
	// the two modes into one.
	if modes["row"].Engine.Vectorized() || !modes["compressed-vector"].Engine.Vectorized() {
		t.Fatal("executor harnesses have the wrong knobs")
	}
	return modes
}

// coldQuery runs sqlText with the plan cache bypassed, so every comparison
// executes a freshly planned operator tree.
func coldQuery(h *Harness, sqlText string) (*engine.Result, error) {
	return h.Engine.QueryWith(engine.QueryOptions{NoCache: true}, sqlText)
}

// cachedQuery runs sqlText twice through the plan cache and returns the
// second result, which must have leased the plan the first one compiled.
func cachedQuery(t *testing.T, h *Harness, sqlText string) *engine.Result {
	t.Helper()
	var res *engine.Result
	for range 2 {
		var err error
		if res, err = h.Engine.Query(sqlText); err != nil {
			t.Fatalf("%v\nSQL: %s", err, sqlText)
		}
	}
	if !res.Stats.PlanCached {
		t.Fatalf("repeat execution did not lease a cached plan\nSQL: %s", sqlText)
	}
	return res
}

// parallelismAxis is the worker-count sweep of the parallel differential
// tests: serial, two workers, and GOMAXPROCS workers (deduplicated, so on a
// small machine the axis never shrinks below {1, 2}).
func parallelismAxis() []int {
	axis := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		axis = append(axis, p)
	}
	return axis
}

// parallelModes extends executorModes with the parallelism axis: for every
// worker count in the sweep, a compressed-vector harness whose engine runs
// morsel-parallel.
func parallelModes(t *testing.T) (modes map[string]*Harness, parallel []string) {
	t.Helper()
	modes = executorModes(t)
	for _, p := range parallelismAxis() {
		if p == 1 {
			continue // the serial harnesses above
		}
		comp := fmt.Sprintf("compressed-vector-p%d", p)
		modes[comp] = cachedHarness(t, func(c *Config) { c.Parallelism = p })
		if got := modes[comp].Engine.Parallelism(); got != p {
			t.Fatalf("parallel harness engine runs %d workers, want %d", got, p)
		}
		parallel = append(parallel, comp)
	}
	sort.Strings(parallel)
	return modes, parallel
}

// TestVectorizedRowDifferential is the result-identity proof for the
// vectorized executor across every executor mode and the parallelism axis:
// every workload query (Q1-Q7), under every row-engine strategy (Row,
// Row(MV), Row(Col)) and every swept selectivity, must return the same
// result set from the row engine and the compressed-vector engine —
// serially and with 2 and GOMAXPROCS morsel workers. Serial modes must
// match exactly (same values, same order);
// parallel modes compare as sorted row sets with a 1e-9 relative float
// tolerance, because parallel partial aggregates fold float sums in morsel
// order (every workload query is unordered — ORDER BY/LIMIT plans are
// covered exact-order by TestParallelOrderByLimitExactOrder).
func TestVectorizedRowDifferential(t *testing.T) {
	modes, parallel := parallelModes(t)
	ref := modes["row"]
	others := append([]string{"compressed-vector"}, parallel...)

	strategies := []Strategy{StrategyRow, StrategyRowMV, StrategyRowCol}
	compared := 0
	for _, q := range Queries() {
		spec := ref.specs()[q]
		sels := ref.Config.Selectivities
		if !spec.swept {
			sels = []float64{0}
		}
		for _, sel := range sels {
			// All harnesses hold identical deterministic TPC-H data, so the
			// parameterized SQL resolves identically; assert that too.
			refSQL, _, _ := spec.resolve(ref, sel)
			for _, name := range others {
				otherSQL, _, _ := modes[name].specs()[q].resolve(modes[name], sel)
				if refSQL != otherSQL {
					t.Fatalf("%s sel=%v: %s harness produced different SQL:\n%s\n%s", q, sel, name, refSQL, otherSQL)
				}
			}
			for _, s := range strategies {
				sqlText, err := ref.strategySQL(q, spec, s, refSQL)
				if err != nil {
					t.Fatalf("%s %s: %v", q, s, err)
				}
				rres, err := coldQuery(ref, sqlText)
				if err != nil {
					t.Fatalf("%s %s row: %v\nSQL: %s", q, s, err, sqlText)
				}
				for _, name := range others {
					vres, err := coldQuery(modes[name], sqlText)
					if err != nil {
						t.Fatalf("%s %s %s: %v\nSQL: %s", q, s, name, err, sqlText)
					}
					// Parallel engines annotate the plan they actually ran
					// with a " [parallel N]" suffix; underneath it the
					// planner's choice must be identical to the row engine's.
					if stripParallelSuffix(vres.Plan) != rres.Plan {
						t.Errorf("%s %s sel=%v: %s plan differs:\n%s\n%s", q, s, sel, name, vres.Plan, rres.Plan)
					}
					if isParallelMode(name, parallel) {
						if msg := sortedRowsApproxEqual(vres.Rows, rres.Rows); msg != "" {
							t.Errorf("%s %s sel=%v: %s results differ from row engine: %s", q, s, sel, name, msg)
						}
					} else if got, want := formatRows(vres.Rows), formatRows(rres.Rows); got != want {
						t.Errorf("%s %s sel=%v: %s results differ\n%s (%d rows):\n%s\nrow (%d rows):\n%s",
							q, s, sel, name, name, len(vres.Rows), clip(got), len(rres.Rows), clip(want))
					}
					compared++
				}
			}
		}
	}
	// Floor: 7 queries × 3 strategies × 4 — two modes (1 serial + at least 1
	// parallel) at each point, and the swept queries' selectivities give 19
	// points for the 7 queries.
	if compared < 7*3*4 {
		t.Fatalf("only %d (query, strategy, selectivity, mode) points compared", compared)
	}
	t.Logf("compared %d (query, strategy, selectivity, mode) points", compared)
}

// joinDifferentialQueries extends the differential matrix beyond the workload
// specs: explicit join shapes — equi-join + aggregate, join + ORDER BY/LIMIT,
// a three-way join — run verbatim on every executor mode. floatAgg marks
// queries whose parallel runs compare with the float tolerance (parallel
// partial aggregates fold float sums in morsel order); everything else must
// match the row engine exactly, order included, even in parallel.
var joinDifferentialQueries = []struct {
	sql      string
	floatAgg bool
}{
	{"SELECT o_orderdate, COUNT(*), MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderdate", false},
	{"SELECT l_orderkey, l_linenumber, o_orderdate FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1996-06-01' ORDER BY o_orderdate, l_orderkey, l_linenumber LIMIT 200", false},
	{"SELECT c_nationkey, COUNT(*), SUM(l_extendedprice) FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey GROUP BY c_nationkey", true},
	{"SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '1994-06-01' GROUP BY l_suppkey ORDER BY 2 DESC, l_suppkey LIMIT 50", false},
}

// TestJoinDifferential is the result-identity proof for the vectorized hash
// join: every join query must return the row engine's result from every
// executor mode — serial and morsel-parallel (where the probe pipeline
// parallelizes through the join and the build side hashes morsel-parallel) —
// both freshly planned and from a plan leased out of the plan cache. The
// planner's physical choice must also be identical across modes.
func TestJoinDifferential(t *testing.T) {
	modes, parallel := parallelModes(t)
	ref := modes["row"]
	others := append([]string{"compressed-vector"}, parallel...)
	compared := 0
	for _, q := range joinDifferentialQueries {
		rres, err := coldQuery(ref, q.sql)
		if err != nil {
			t.Fatalf("row engine: %v\nSQL: %s", err, q.sql)
		}
		if len(rres.Rows) == 0 {
			t.Fatalf("join probe returned no rows; fixture is degenerate\nSQL: %s", q.sql)
		}
		for _, mode := range others {
			for _, cached := range []bool{false, true} {
				name := mode
				var vres *engine.Result
				if cached {
					name += " (cached plan)"
					vres = cachedQuery(t, modes[mode], q.sql)
				} else if vres, err = coldQuery(modes[mode], q.sql); err != nil {
					t.Fatalf("%s: %v\nSQL: %s", name, err, q.sql)
				}
				if stripParallelSuffix(vres.Plan) != rres.Plan {
					t.Errorf("%s plan differs:\n%s\n%s\nSQL: %s", name, vres.Plan, rres.Plan, q.sql)
				}
				if q.floatAgg && isParallelMode(mode, parallel) {
					if msg := rowsApproxEqual(vres.Rows, rres.Rows); msg != "" {
						t.Errorf("%s results differ from row engine: %s\nSQL: %s", name, msg, q.sql)
					}
				} else if got, want := formatRows(vres.Rows), formatRows(rres.Rows); got != want {
					t.Errorf("%s results differ from row engine\n%s (%d rows):\n%s\nrow (%d rows):\n%s\nSQL: %s",
						name, name, len(vres.Rows), clip(got), len(rres.Rows), clip(want), q.sql)
				}
				compared++
			}
		}
	}
	// Floor: 4 join queries × (1 serial + at least 1 parallel) modes × (fresh
	// + cached plan).
	if compared < 4*4 {
		t.Fatalf("only %d (query, mode) join points compared", compared)
	}
	t.Logf("compared %d (query, mode) join points", compared)
}

// stripParallelSuffix drops the " [parallel N]" annotation a parallel engine
// appends to the plan it executed.
func stripParallelSuffix(plan string) string {
	if i := strings.LastIndex(plan, " [parallel "); i >= 0 && strings.HasSuffix(plan, "]") {
		return plan[:i]
	}
	return plan
}

func isParallelMode(name string, parallel []string) bool {
	for _, p := range parallel {
		if p == name {
			return true
		}
	}
	return false
}

// sortedRowsApproxEqual compares two result sets as sets: both sides are
// sorted by a canonical full-row order, then compared with rowsApproxEqual's
// float tolerance. Rows are copied, never mutated in place.
func sortedRowsApproxEqual(got, want []exec.Row) string {
	return rowsApproxEqual(sortRowsCanonical(got), sortRowsCanonical(want))
}

func sortRowsCanonical(rows []exec.Row) []exec.Row {
	out := append([]exec.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for c := 0; c < len(a) && c < len(b); c++ {
			if cmp := value.Compare(a[c], b[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return len(a) < len(b)
	})
	return out
}

// TestColOptExecutorDifferential holds the executor on compressed vectors
// to the same executor on flat ones, on the production scans. A column
// store's ColOpt bound rests on work over compressed columns changing no
// answer; here the row store's own compressed batches are held to that. For
// every workload query under Row, Row(MV) and Row(Col) at every selectivity,
// the serial plan the planner compiles must return the same rows again with
// flatVectors over each of its table scans and index seeks. Float sums are
// compared with a relative tolerance: the compressed path folds an RLE run as
// value*count where the flat path adds per row. The scans must produce at
// least one RLE or Const vector and one Dict vector, so the test cannot pass
// comparing flat to flat.
func TestColOptExecutorDifferential(t *testing.T) {
	h := executorModes(t)["compressed-vector"]
	seen := make(map[vector.Encoding]int)
	compared := 0
	for _, q := range Queries() {
		spec := h.specs()[q]
		sels := h.Config.Selectivities
		if !spec.swept {
			sels = []float64{0}
		}
		for _, sel := range sels {
			query, _, _ := spec.resolve(h, sel)
			for _, s := range []Strategy{StrategyRow, StrategyRowMV, StrategyRowCol} {
				sqlText, err := h.strategySQL(q, spec, s, query)
				if err != nil {
					t.Fatalf("%s %s: %v", q, s, err)
				}
				compressed, err := exec.DrainBatches(nil, planSerial(t, h.Engine, sqlText).Root)
				if err != nil {
					t.Fatalf("%s %s: %v\nSQL: %s", q, s, err, sqlText)
				}
				flat, err := exec.DrainBatches(nil, flattenScans(t, planSerial(t, h.Engine, sqlText).Root, seen))
				if err != nil {
					t.Fatalf("%s %s flat: %v\nSQL: %s", q, s, err, sqlText)
				}
				if msg := rowsApproxEqual(flat, compressed); msg != "" {
					t.Errorf("%s %s sel=%v: flat and compressed vectors differ: %s\nSQL: %s", q, s, sel, msg, sqlText)
				}
				compared++
			}
		}
	}
	if compared < 7*3 {
		t.Fatalf("only %d (query, strategy, selectivity) points compared", compared)
	}
	if seen[vector.RLE]+seen[vector.Const] == 0 || seen[vector.Dict] == 0 {
		t.Fatalf("the scans produced %v: want RLE or Const vectors and Dict vectors", seen)
	}
	t.Logf("compared %d (query, strategy, selectivity) points; the scans produced %d RLE, %d Const, %d Dict and %d Flat vectors",
		compared, seen[vector.RLE], seen[vector.Const], seen[vector.Dict], seen[vector.Flat])
}

// rowsApproxEqual compares result sets exactly except for float values,
// which compare with a relative tolerance. It returns "" on match and a
// description of the first mismatch otherwise.
func rowsApproxEqual(got, want []exec.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("row counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d arity differs", i)
		}
		for j := range got[i] {
			g, w := got[i][j], want[i][j]
			if g.Kind == value.KindFloat && w.Kind == value.KindFloat {
				diff := math.Abs(g.F - w.F)
				scale := math.Max(math.Abs(g.F), math.Abs(w.F))
				if diff > 1e-9*math.Max(scale, 1) {
					return fmt.Sprintf("row %d col %d: %v vs %v", i, j, g, w)
				}
				continue
			}
			if g.Kind != w.Kind || value.Compare(g, w) != 0 {
				return fmt.Sprintf("row %d col %d: %v (%v) vs %v (%v)", i, j, g, g.Kind, w, w.Kind)
			}
		}
	}
	return ""
}

// formatRows renders rows (values and order) for exact comparison.
func formatRows(rows [][]value.Value) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			sb.WriteString(v.Kind.String())
			sb.WriteByte(':')
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "...(clipped)"
	}
	return s
}
