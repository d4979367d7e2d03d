package bench

import "testing"

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
// Two recordings are kept. before* is the one made under catalog meta
// version 4, where every scan descended from the root to its first leaf,
// paying a random read per internal level even when its start was open;
// reads/seq/rand is the current one, under version 5, where a scan with an
// open start begins at the tree's stored leftmost leaf. The current recording
// must match exactly, and may differ from the old one in one direction only:
// no cell reads more pages, sequentially or at random, than it did.
var ioGolden = []struct {
	q                                  QueryID
	s                                  Strategy
	sel                                float64
	beforeReads, beforeSeq, beforeRand int64
	reads, seq, rand                   int64
}{
	{"Q1", "Row", 0.01, 539, 537, 2, 538, 537, 1},
	{"Q1", "Row(Col)", 0.01, 2, 0, 2, 2, 0, 2},
	{"Q1", "Row", 0.1, 539, 537, 2, 538, 537, 1},
	{"Q1", "Row(Col)", 0.1, 2, 0, 2, 2, 0, 2},
	{"Q1", "Row", 0.5, 539, 537, 2, 538, 537, 1},
	{"Q1", "Row(Col)", 0.5, 7, 5, 2, 6, 5, 1},
	{"Q1", "Row", 1, 539, 537, 2, 538, 537, 1},
	{"Q1", "Row(Col)", 1, 7, 5, 2, 6, 5, 1},
	{"Q2", "Row", 0, 539, 537, 2, 538, 537, 1},
	{"Q2", "Row(Col)", 0, 4, 0, 4, 4, 0, 4},
	{"Q3", "Row", 0.01, 539, 537, 2, 538, 537, 1},
	{"Q3", "Row(Col)", 0.01, 4, 0, 4, 4, 0, 4},
	{"Q3", "Row", 0.1, 539, 537, 2, 538, 537, 1},
	{"Q3", "Row(Col)", 0.1, 14, 10, 4, 14, 10, 4},
	{"Q3", "Row", 0.5, 539, 537, 2, 538, 537, 1},
	{"Q3", "Row(Col)", 0.5, 73, 69, 4, 72, 69, 3},
	{"Q3", "Row", 1, 539, 537, 2, 538, 537, 1},
	{"Q3", "Row(Col)", 1, 136, 132, 4, 135, 132, 3},
	{"Q4", "Row", 0.01, 618, 614, 4, 616, 614, 2},
	{"Q4", "Row(Col)", 0.01, 6, 2, 4, 6, 2, 4},
	{"Q4", "Row", 0.1, 618, 614, 4, 616, 614, 2},
	{"Q4", "Row(Col)", 0.1, 18, 14, 4, 18, 14, 4},
	{"Q4", "Row", 0.5, 618, 614, 4, 616, 614, 2},
	{"Q4", "Row(Col)", 0.5, 80, 76, 4, 79, 76, 3},
	{"Q4", "Row", 1, 618, 614, 4, 616, 614, 2},
	{"Q4", "Row(Col)", 1, 149, 145, 4, 148, 145, 3},
	{"Q5", "Row", 0, 618, 614, 4, 616, 614, 2},
	{"Q5", "Row(Col)", 0, 6, 0, 6, 6, 0, 6},
	{"Q6", "Row", 0.01, 618, 614, 4, 616, 614, 2},
	{"Q6", "Row(Col)", 0.01, 9, 3, 6, 9, 3, 6},
	{"Q6", "Row", 0.1, 618, 614, 4, 616, 614, 2},
	{"Q6", "Row(Col)", 0.1, 32, 26, 6, 32, 26, 6},
	{"Q6", "Row", 0.5, 618, 614, 4, 616, 614, 2},
	{"Q6", "Row(Col)", 0.5, 146, 140, 6, 145, 140, 5},
	{"Q6", "Row", 1, 618, 614, 4, 616, 614, 2},
	{"Q6", "Row(Col)", 1, 278, 272, 6, 277, 272, 5},
	{"Q7", "Row", 0, 630, 624, 6, 627, 624, 3},
	{"Q7", "Row(Col)", 0, 53, 49, 4, 53, 49, 4},
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
			if g.seq > g.beforeSeq || g.rand > g.beforeRand {
				t.Errorf("%s %s sel=%v: recorded seq/rand %d/%d exceeds the previous format's %d/%d",
					g.q, g.s, g.sel, g.seq, g.rand, g.beforeSeq, g.beforeRand)
			}
		}
	}
}
