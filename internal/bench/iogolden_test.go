package bench

import (
	"testing"

	"oldelephant/internal/storage"
)

// ioGoldenPool is the buffer-pool bound of the golden I/O runs: well below
// lineitem's ~540 leaf pages and below the larger c-table reads, so eviction
// and re-reads are part of what is pinned.
const ioGoldenPool = 256

// ioGolden is the cold serial page I/O of every differential-suite query under
// Row and Row(Col) at SF 0.01 with a 256-page pool. The counters are
// deterministic: the paper's headline ratios — and the benchmark's
// modeled_disk_cost — are these numbers, so a refactor that opens a scan
// eagerly, walks a leaf chain on the serial path, or reorders page reads
// fails here, in tier-1, rather than in the benchmark.
//
// Two recordings are kept. before* is the one made while every bounded start
// that was not at or below the leftmost leaf's fence, nor forward of a band
// join's last probe, descended from the root; reads/seq/rand is the current
// one, where such a start on a bulk-loaded tree reads the leaf its leaf model
// predicts and walks forward from there (btree.Model), reading no internal
// page. Every Row(Col) cell that descended reads one random page fewer per
// descent, and the selective statements that scanned the 6 leaves of
// d1_l_shipdate or d2_o_orderdate from the leftmost leaf now seek the
// c-table's v index, priced at one random read, and read fewer sequential
// pages too; Q7 reads as many pages, one of them now sequential instead of
// random. No Row cell moves: their cold statements read no internal page. The
// current recording must match exactly, and may differ from the old one in
// one direction only: no cell reads more pages at random, and no cell costs
// more in the paper's units (seq + RandomReadCost × rand).
var ioGolden = []struct {
	q                                  QueryID
	s                                  Strategy
	sel                                float64
	beforeReads, beforeSeq, beforeRand int64
	reads, seq, rand                   int64
}{
	{"Q1", "Row", 0.01, 538, 537, 1, 538, 537, 1},
	{"Q1", "Row(Col)", 0.01, 6, 5, 1, 2, 1, 1},
	{"Q1", "Row", 0.1, 538, 537, 1, 538, 537, 1},
	{"Q1", "Row(Col)", 0.1, 6, 5, 1, 2, 1, 1},
	{"Q1", "Row", 0.5, 538, 537, 1, 538, 537, 1},
	{"Q1", "Row(Col)", 0.5, 6, 5, 1, 5, 4, 1},
	{"Q1", "Row", 1, 538, 537, 1, 538, 537, 1},
	{"Q1", "Row(Col)", 1, 6, 5, 1, 6, 5, 1},
	{"Q2", "Row", 0, 538, 537, 1, 538, 537, 1},
	{"Q2", "Row(Col)", 0, 8, 5, 3, 4, 2, 2},
	{"Q3", "Row", 0.01, 538, 537, 1, 538, 537, 1},
	{"Q3", "Row(Col)", 0.01, 8, 5, 3, 4, 2, 2},
	{"Q3", "Row", 0.1, 538, 537, 1, 538, 537, 1},
	{"Q3", "Row(Col)", 0.1, 18, 15, 3, 14, 12, 2},
	{"Q3", "Row", 0.5, 538, 537, 1, 538, 537, 1},
	{"Q3", "Row(Col)", 0.5, 72, 69, 3, 71, 69, 2},
	{"Q3", "Row", 1, 538, 537, 1, 538, 537, 1},
	{"Q3", "Row(Col)", 1, 134, 132, 2, 134, 132, 2},
	{"Q4", "Row", 0.01, 616, 614, 2, 616, 614, 2},
	{"Q4", "Row(Col)", 0.01, 10, 7, 3, 6, 4, 2},
	{"Q4", "Row", 0.1, 616, 614, 2, 616, 614, 2},
	{"Q4", "Row(Col)", 0.1, 22, 19, 3, 18, 16, 2},
	{"Q4", "Row", 0.5, 616, 614, 2, 616, 614, 2},
	{"Q4", "Row(Col)", 0.5, 79, 76, 3, 78, 76, 2},
	{"Q4", "Row", 1, 616, 614, 2, 616, 614, 2},
	{"Q4", "Row(Col)", 1, 147, 145, 2, 147, 145, 2},
	{"Q5", "Row", 0, 616, 614, 2, 616, 614, 2},
	{"Q5", "Row(Col)", 0, 10, 5, 5, 6, 3, 3},
	{"Q6", "Row", 0.01, 616, 614, 2, 616, 614, 2},
	{"Q6", "Row(Col)", 0.01, 13, 8, 5, 9, 6, 3},
	{"Q6", "Row", 0.1, 616, 614, 2, 616, 614, 2},
	{"Q6", "Row(Col)", 0.1, 36, 31, 5, 32, 29, 3},
	{"Q6", "Row", 0.5, 616, 614, 2, 616, 614, 2},
	{"Q6", "Row(Col)", 0.5, 145, 140, 5, 144, 141, 3},
	{"Q6", "Row", 1, 616, 614, 2, 616, 614, 2},
	{"Q6", "Row(Col)", 1, 275, 272, 3, 275, 272, 3},
	{"Q7", "Row", 0, 627, 624, 3, 627, 624, 3},
	{"Q7", "Row(Col)", 0, 53, 49, 4, 53, 50, 3},
}

// modeledCost prices measured reads in the paper's units, sequential pages.
func modeledCost(io storage.IOStats) float64 {
	return float64(io.SeqReads) + storage.RandomReadCost*float64(io.RandReads)
}

// TestSerialIOGolden holds the cold serial IOStats of both pull protocols
// against the recorded counters (the two protocols read identical pages in
// identical order, so one table serves both).
func TestSerialIOGolden(t *testing.T) {
	for _, mode := range []string{"row", "compressed-vector"} {
		h := executorModes(t)[mode]
		// The harnesses are shared with the other differential tests, which
		// expect the default unbounded pool.
		h.Engine.Pager().SetCapacity(ioGoldenPool)
		defer h.Engine.Pager().SetCapacity(0)
		for _, g := range ioGolden {
			m, err := h.Run(g.q, g.s, g.sel)
			if err != nil {
				t.Fatal(err)
			}
			if m.IO.PageReads != g.reads || m.IO.SeqReads != g.seq || m.IO.RandReads != g.rand {
				t.Errorf("%s %s %s sel=%v: reads/seq/rand = %d/%d/%d, recorded %d/%d/%d\nplan: %s",
					mode, g.q, g.s, g.sel, m.IO.PageReads, m.IO.SeqReads, m.IO.RandReads,
					g.reads, g.seq, g.rand, m.Plan)
			}
			cost := modeledCost(storage.IOStats{SeqReads: g.seq, RandReads: g.rand})
			beforeCost := modeledCost(storage.IOStats{SeqReads: g.beforeSeq, RandReads: g.beforeRand})
			if g.rand > g.beforeRand || cost > beforeCost {
				t.Errorf("%s %s sel=%v: recorded seq/rand %d/%d (cost %.0f) exceeds the previous recording's %d/%d (cost %.0f)",
					g.q, g.s, g.sel, g.seq, g.rand, cost, g.beforeSeq, g.beforeRand, beforeCost)
			}
		}
	}
}

// TestAccessPathEstimateQError holds the planner's cold page estimate of a
// single-table plan to what the golden runs measure, both in the paper's
// units (seq + RandomReadCost × rand): Q1 reads lineitem under Row and
// d1_l_shipdate under Row(Col). The q-error is the larger of estimate/actual
// and actual/estimate.
func TestAccessPathEstimateQError(t *testing.T) {
	const maxQError = 1.5
	h := executorModes(t)["compressed-vector"]
	h.Engine.Pager().SetCapacity(ioGoldenPool)
	defer h.Engine.Pager().SetCapacity(0)
	for _, g := range ioGolden {
		if g.q != Q1 {
			continue
		}
		m, err := h.Run(g.q, g.s, g.sel)
		if err != nil {
			t.Fatal(err)
		}
		if m.EstPages == nil {
			t.Fatalf("%s %s sel=%v: single-table plan has no estimate: %s", g.q, g.s, g.sel, m.Plan)
		}
		est, actual := m.EstPages.Cost(), modeledCost(m.IO)
		q := max(est/actual, actual/est)
		t.Logf("%s %s sel=%v: estimated seq %.1f rand %.1f (cost %.1f), measured seq %d rand %d (cost %.0f), q-error %.2f",
			g.q, g.s, g.sel, m.EstPages.Seq, m.EstPages.Rand, est, m.IO.SeqReads, m.IO.RandReads, actual, q)
		if q > maxQError {
			t.Errorf("%s %s sel=%v: q-error %.2f exceeds %.1f\nplan: %s", g.q, g.s, g.sel, q, maxQError, m.Plan)
		}
	}
}
