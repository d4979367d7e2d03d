package bench

import (
	"strings"
	"testing"
	"time"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// sharedHarness is built once because loading TPC-H and building three
// physical designs dominates test time.
var sharedHarness *Harness

func harness(t testing.TB) *Harness {
	t.Helper()
	if sharedHarness != nil {
		return sharedHarness
	}
	cfg := DefaultConfig()
	cfg.SF = 0.002
	cfg.Selectivities = []float64{0.1, 0.5}
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	sharedHarness = h
	return h
}

func TestDiskModel(t *testing.T) {
	m := DefaultDiskModel()
	io := storage.IOStats{SeqReads: 100, RandReads: 10}
	if m.Time(io) != 100*m.SeqReadPerPage+10*m.RandReadPerPage {
		t.Error("Time arithmetic wrong")
	}
	if m.SeqTime(50) != 50*m.SeqReadPerPage {
		t.Error("SeqTime arithmetic wrong")
	}
	// The modeled time is the planner's price, in sequential pages, at the
	// sequential rate.
	if want := time.Duration(modeledCost(io)) * m.SeqReadPerPage; m.Time(io) != want {
		t.Errorf("modeled time %v, the planner's price says %v", m.Time(io), want)
	}
}

func TestHarnessSetup(t *testing.T) {
	h := harness(t)
	for _, d := range []string{"D1", "D2", "D4"} {
		if h.Designs[d] == nil || h.Proj[d] == nil {
			t.Fatalf("design %s missing", d)
		}
		if h.Designs[d].NumRows == 0 || h.Proj[d].NumRows == 0 {
			t.Fatalf("design %s is empty", d)
		}
		if h.Designs[d].NumRows != h.Proj[d].NumRows {
			t.Errorf("design %s rows %d != projection rows %d", d, h.Designs[d].NumRows, h.Proj[d].NumRows)
		}
	}
	if len(h.Engine.Views()) != 4 {
		t.Errorf("views = %d, want 4", len(h.Engine.Views()))
	}
	if value.Compare(h.dateMin, h.dateMax) >= 0 {
		t.Error("shipdate range is empty")
	}
}

func TestStrategiesAgreeOnResults(t *testing.T) {
	h := harness(t)
	// For every query, Row, Row(MV) and Row(Col) must return identical row
	// counts (ColOpt is only a bound, it returns no rows).
	for _, q := range Queries() {
		row, err := h.Run(q, StrategyRow, 0.1)
		if err != nil {
			t.Fatalf("%s Row: %v", q, err)
		}
		mv, err := h.Run(q, StrategyRowMV, 0.1)
		if err != nil {
			t.Fatalf("%s Row(MV): %v", q, err)
		}
		col, err := h.Run(q, StrategyRowCol, 0.1)
		if err != nil {
			t.Fatalf("%s Row(Col): %v", q, err)
		}
		if row.Rows != mv.Rows || row.Rows != col.Rows {
			t.Errorf("%s row counts differ: Row=%d Row(MV)=%d Row(Col)=%d", q, row.Rows, mv.Rows, col.Rows)
		}
		if row.Rows == 0 {
			t.Errorf("%s returned no rows; parameter too selective", q)
		}
	}
}

func TestColOptIsCheapestOnSelectiveQueries(t *testing.T) {
	h := harness(t)
	for _, q := range []QueryID{Q1, Q2, Q3} {
		ms, err := h.RunAll(q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		byStrategy := make(map[Strategy]Measurement)
		for _, m := range ms {
			byStrategy[m.Strategy] = m
		}
		if byStrategy[StrategyColOpt].Total > byStrategy[StrategyRow].Total {
			t.Errorf("%s: ColOpt (%v) should beat Row (%v)", q,
				byStrategy[StrategyColOpt].Total, byStrategy[StrategyRow].Total)
		}
		if byStrategy[StrategyRowMV].PagesRead > byStrategy[StrategyRow].PagesRead {
			t.Errorf("%s: Row(MV) reads more pages than Row", q)
		}
		if byStrategy[StrategyRowCol].PagesRead > byStrategy[StrategyRow].PagesRead {
			t.Errorf("%s: Row(Col) reads more pages than Row", q)
		}
	}
}

func TestPaperShapeHolds(t *testing.T) {
	h := harness(t)
	// Headline shape of the paper's evaluation:
	// (1) ColOpt is orders of magnitude faster than Row on Q1. Read at SF 0.01:
	// at the shared harness's SF 0.002 Q3's ColOpt time is its floor of two
	// random reads and Row's is the same two reads plus ~150 sequential pages,
	// so the ratio there tracks lineitem's leaf count against a constant.
	cfg := h.Config
	cfg.SF = 0.01
	big, err := NewHarness(cfg)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	speedup, err := big.RatioRows(StrategyRow)
	if err != nil {
		t.Fatal(err)
	}
	ratios := make(map[QueryID]float64)
	for _, r := range speedup {
		ratios[r.Query] = r.Ratio
	}
	// At the tiny scale factor used for unit tests the advantage is a small
	// multiple; it grows with scale (cmd/elephantbench -sf N -table speedup).
	if ratios[Q1] < 3 {
		t.Errorf("Q1 Row/ColOpt = %.1fx, expected a clear speedup", ratios[Q1])
	}
	if ratios[Q3] < 2 {
		t.Errorf("Q3 Row/ColOpt = %.1fx, expected ColOpt ahead", ratios[Q3])
	}
	// (2) Row(MV) is within a small factor of ColOpt for Q1-Q3 and far better
	// than ColOpt for Q7 (the paper reports 1,400x better).
	mv, err := h.RatioRows(StrategyRowMV)
	if err != nil {
		t.Fatal(err)
	}
	mvRatios := make(map[QueryID]float64)
	for _, r := range mv {
		mvRatios[r.Query] = r.Ratio
	}
	for _, q := range []QueryID{Q1, Q2, Q3} {
		if mvRatios[q] > 20 {
			t.Errorf("%s Row(MV)/ColOpt = %.1fx, expected within a small factor", q, mvRatios[q])
		}
	}
	if mvRatios[Q7] > 0.5 {
		t.Errorf("Q7 Row(MV)/ColOpt = %.2fx, expected the view to be much faster than ColOpt", mvRatios[Q7])
	}
	// (3) Row(Col) is within a small constant factor of ColOpt across the board
	// (the paper reports 1.1x-5.6x, average 2.7x).
	ct, err := h.RatioRows(StrategyRowCol)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range ct {
		sum += r.Ratio
		if r.Ratio > 40 {
			t.Errorf("%s Row(Col)/ColOpt = %.1fx, far outside the paper's range", r.Query, r.Ratio)
		}
	}
	avg := sum / float64(len(ct))
	if avg > 15 {
		t.Errorf("average Row(Col)/ColOpt = %.1fx, expected a small factor", avg)
	}
}

func TestFigure2AndFormatting(t *testing.T) {
	h := harness(t)
	ms, err := h.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	// 4 swept queries x 2 selectivities x 4 strategies + 3 fixed x 4.
	want := 4*2*4 + 3*4
	if len(ms) != want {
		t.Errorf("Figure2 measurements = %d, want %d", len(ms), want)
	}
	text := FormatFigure2(ms)
	for _, q := range Queries() {
		if !strings.Contains(text, string(q)) {
			t.Errorf("Figure 2 output missing %s", q)
		}
	}
	summary, err := h.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Section 1", "Section 2.1", "Section 2.2.4", "Q7"} {
		if !strings.Contains(summary, frag) {
			t.Errorf("summary missing %q", frag)
		}
	}
	// Ratio table rendering with inversion.
	inverted := FormatRatioTable("t", []RatioRow{{Query: Q1, Ratio: 0.5, StrategyTime: time.Second, ReferenceTime: 2 * time.Second}}, true)
	if !strings.Contains(inverted, "faster") {
		t.Errorf("inverted table rendering: %s", inverted)
	}
	if formatDuration(500*time.Nanosecond) == "" || formatDuration(2*time.Second) == "" {
		t.Error("formatDuration failed")
	}
}

func TestRunErrors(t *testing.T) {
	h := harness(t)
	if _, err := h.Run("Q99", StrategyRow, 0.1); err == nil {
		t.Error("unknown query should fail")
	}
	if _, err := h.Run(Q1, Strategy("bogus"), 0.1); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestDefaultConfigNormalization(t *testing.T) {
	cfg := Config{SF: 0.001}
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Config.Selectivities) == 0 || h.Config.Disk.SeqReadPerPage == 0 {
		t.Error("config defaults not applied")
	}
}
