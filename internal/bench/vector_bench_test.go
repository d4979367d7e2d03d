package bench

import (
	"strings"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/exec"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// The row-vs-batch executor microbenchmarks: the same SQL over the same
// loaded table, one engine per executor mode. The workload is the shape the
// vectorized refactor targets — a selection-heavy scan-filter-aggregate
// pipeline — plus a pure aggregation without a filter.
//
//	go test ./internal/bench -bench 'ScanFilterAgg|GroupAgg'

const benchRows = 150000

var (
	benchOnce    sync.Once
	benchVecEng  *engine.Engine
	benchRowEng  *engine.Engine
	benchLoadErr error
)

// newItemsEngine builds an engine holding the 150k-row items table under the
// given executor options. Shared by the row-vs-batch benchmarks and the
// parallel scaling benchmarks/tests.
func newItemsEngine(opts engine.Options) (*engine.Engine, error) {
	e := engine.New(opts)
	_, err := e.Execute("CREATE TABLE items (id INT, supp INT, ship DATE, price FLOAT, PRIMARY KEY (id))")
	if err != nil {
		return nil, err
	}
	rows := make([][]value.Value, benchRows)
	base := value.MustParseDate("1995-01-01").Int()
	for i := range rows {
		rows[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 100)),
			value.NewDate(base + int64(i%365)),
			value.NewFloat(float64(100 + i%1000)),
		}
	}
	if err := e.BulkLoad("items", rows); err != nil {
		return nil, err
	}
	return e, nil
}

// benchEngines builds two engines (vectorized and row-at-a-time) holding an
// identical 150k-row table. The load happens once per process.
func benchEngines(tb testing.TB) (vec, row *engine.Engine) {
	tb.Helper()
	benchOnce.Do(func() {
		// Parallelism pinned to 1: these benchmarks are the serial
		// row-vs-batch comparison; the scaling benchmarks build their own
		// parallel engines.
		benchVecEng, benchLoadErr = newItemsEngine(engine.Options{Parallelism: 1})
		if benchLoadErr == nil {
			benchRowEng, benchLoadErr = newItemsEngine(engine.Options{DisableVectorized: true, Parallelism: 1})
		}
	})
	if benchLoadErr != nil {
		tb.Fatal(benchLoadErr)
	}
	return benchVecEng, benchRowEng
}

// scanFilterAggSQL selects ~60% of the table through two conjuncts, then
// groups into 100 groups — the paper-workload shape (Q1/Q3) at larger scale.
const scanFilterAggSQL = "SELECT supp, COUNT(*), SUM(price) FROM items " +
	"WHERE ship > DATE '1995-03-01' AND price < 850 GROUP BY supp"

// groupAggSQL aggregates every row with no filter.
const groupAggSQL = "SELECT supp, SUM(price), MAX(ship), COUNT(*) FROM items GROUP BY supp"

func runQueryBench(b *testing.B, e *engine.Engine, sql string) {
	b.Helper()
	rowsOut := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		rowsOut = len(res.Rows)
	}
	b.StopTimer()
	if rowsOut == 0 {
		b.Fatal("benchmark query returned no rows")
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkScanFilterAggRow(b *testing.B) {
	_, row := benchEngines(b)
	runQueryBench(b, row, scanFilterAggSQL)
}

func BenchmarkScanFilterAggVectorized(b *testing.B) {
	vec, _ := benchEngines(b)
	runQueryBench(b, vec, scanFilterAggSQL)
}

func BenchmarkGroupAggRow(b *testing.B) {
	_, row := benchEngines(b)
	runQueryBench(b, row, groupAggSQL)
}

func BenchmarkGroupAggVectorized(b *testing.B) {
	vec, _ := benchEngines(b)
	runQueryBench(b, vec, groupAggSQL)
}

// groupAggManyGroupsSQL is the shape of the paper's widest views (mv23,
// mv456): two key columns, a date and a number, whose pairs are nearly
// unique — 73,000 groups out of 150,000 rows — so the time goes into the
// group table, not into folding rows into few groups.
const groupAggManyGroupsSQL = "SELECT ship, price, COUNT(*) FROM items GROUP BY ship, price"

func BenchmarkGroupAggManyGroups(b *testing.B) {
	vec, _ := benchEngines(b)
	runQueryBench(b, vec, groupAggManyGroupsSQL)
}

// The flat-vs-compressed executor microbenchmarks: the same
// scan-filter-aggregate SeqScan plan over the same table, once on the
// compressed (Const/RLE) vectors its scan produces and once with every
// vector decompressed at the scan (flatVectors). The runs table is
// RLE-friendly the way the paper's D1 is: clustered on (supp, ship, id), so
// the scan run-encodes supp and ship, with qty constant within each
// (supp, ship) run.
//
//	go test ./internal/bench -bench 'ScanFilterAgg'

var (
	runsOnce sync.Once
	runsEng  *engine.Engine
	runsErr  error
)

// runsScanSQL filters ~60% of the runs table on ship, which is no prefix of
// its clustered key, so the plan is a SeqScan.
const runsScanSQL = "SELECT supp, COUNT(*), SUM(qty) FROM runs WHERE ship > DATE '1995-02-09' GROUP BY supp"

// runsEngine builds a serial engine holding the 150k-row runs table, once per
// process.
func runsEngine(tb testing.TB) *engine.Engine {
	tb.Helper()
	runsOnce.Do(func() {
		runsEng = engine.New(engine.Options{Parallelism: 1})
		if _, runsErr = runsEng.Execute("CREATE TABLE runs (supp INT, ship DATE, qty INT, id INT, PRIMARY KEY (supp, ship, id))"); runsErr != nil {
			return
		}
		base := value.MustParseDate("1995-01-01").Int()
		rows := make([][]value.Value, benchRows)
		for i := range rows {
			day := i % 100
			supp := (i / 100) % 50
			rows[i] = []value.Value{
				value.NewInt(int64(supp)),
				value.NewDate(base + int64(day)),
				value.NewInt(int64((day*7 + supp) % 13)),
				value.NewInt(int64(i)),
			}
		}
		runsErr = runsEng.BulkLoad("runs", rows)
	})
	if runsErr != nil {
		tb.Fatal(runsErr)
	}
	return runsEng
}

// runsScanPlan compiles runsScanSQL into its serial operator tree, with the
// scan's vectors decompressed when flat is set.
func runsScanPlan(tb testing.TB, flat bool) exec.Operator {
	tb.Helper()
	root := planSerial(tb, runsEngine(tb), runsScanSQL).Root
	if flat {
		root = flattenScans(tb, root, nil)
	}
	return root
}

func runRunsScanBench(b *testing.B, flat bool) {
	b.Helper()
	runsEngine(b) // load outside the timer
	rowsOut := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exec.DrainBatches(nil, runsScanPlan(b, flat))
		if err != nil {
			b.Fatal(err)
		}
		rowsOut = len(rows)
	}
	b.StopTimer()
	if rowsOut == 0 {
		b.Fatal("benchmark plan returned no rows")
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkScanFilterAggCompressed(b *testing.B) { runRunsScanBench(b, false) }

func BenchmarkScanFilterAggFlatVectors(b *testing.B) { runRunsScanBench(b, true) }

// TestCompressedFlatPlansAgree keeps the flat-vs-compressed benchmark honest:
// the two vector modes must return identical results for the benchmarked plan.
func TestCompressedFlatPlansAgree(t *testing.T) {
	if p := planSerial(t, runsEngine(t), runsScanSQL); !strings.Contains(p.Explain, "SeqScan(runs)") {
		t.Fatalf("benchmark plan is no SeqScan: %s", p.Explain)
	}
	compressed, err := exec.DrainBatches(nil, runsScanPlan(t, false))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[vector.Encoding]int)
	flat, err := exec.DrainBatches(nil, flattenScans(t, runsScanPlan(t, false), seen))
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) == 0 {
		t.Fatal("benchmark plan returned no rows")
	}
	if seen[vector.RLE]+seen[vector.Const] == 0 {
		t.Fatalf("the scan produced %v: want RLE or Const vectors", seen)
	}
	if got, want := formatRows(compressed), formatRows(flat); got != want {
		t.Fatalf("benchmark plan diverges between vector modes:\n%s\nvs\n%s", clip(got), clip(want))
	}
}

// TestBenchQueriesAgree keeps the benchmark honest: both executor modes must
// return identical results for the benchmarked SQL.
func TestBenchQueriesAgree(t *testing.T) {
	vec, row := benchEngines(t)
	for _, sql := range []string{scanFilterAggSQL, groupAggSQL} {
		vres, err := vec.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := row.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(vres.Rows) == 0 {
			t.Fatal("benchmark query returned no rows")
		}
		if got, want := formatRows(vres.Rows), formatRows(rres.Rows); got != want {
			t.Fatalf("benchmark query diverges between modes:\n%s\nvs\n%s", clip(got), clip(want))
		}
	}
}
