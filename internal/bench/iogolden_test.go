package bench

import "testing"

// ioGoldenPool is the buffer-pool bound of the golden I/O runs: well below
// lineitem's ~880 leaf pages and below the larger c-table reads, so eviction
// and re-reads are part of what is pinned.
const ioGoldenPool = 256

// ioGolden is the cold serial page I/O of every differential-suite query under
// Row and Row(Col) at SF 0.01 with a 256-page pool. The counters are
// deterministic: the paper's headline ratios — and the benchmark's
// modeled_disk_cost — are these numbers, so a refactor that opens a scan
// eagerly, walks a leaf chain on the serial path, or reorders page reads
// fails here, in tier-1, rather than in the benchmark.
//
// Two recordings are kept. before* is PR 15's, under record layout version 2,
// which stored every numeric key column as a 9-byte cross-kind word and inner
// nodes' child ids in 8 bytes; reads/seq/rand is the current one, under
// version 3's kind-directed keys and uvarint child ids. The current recording
// must match exactly, and may differ from the old one in one direction only:
// no cell reads more pages, sequentially or at random, than it did.
var ioGolden = []struct {
	q                                  QueryID
	s                                  Strategy
	sel                                float64
	beforeReads, beforeSeq, beforeRand int64
	reads, seq, rand                   int64
}{
	{"Q1", "Row", 0.01, 760, 757, 3, 658, 655, 3},
	{"Q1", "Row(Col)", 0.01, 2, 0, 2, 2, 0, 2},
	{"Q1", "Row", 0.1, 760, 757, 3, 658, 655, 3},
	{"Q1", "Row(Col)", 0.1, 3, 1, 2, 3, 1, 2},
	{"Q1", "Row", 0.5, 760, 757, 3, 658, 655, 3},
	{"Q1", "Row(Col)", 0.5, 11, 9, 2, 9, 7, 2},
	{"Q1", "Row", 1, 760, 757, 3, 658, 655, 3},
	{"Q1", "Row(Col)", 1, 11, 9, 2, 9, 7, 2},
	{"Q2", "Row", 0, 760, 757, 3, 658, 655, 3},
	{"Q2", "Row(Col)", 0, 4, 0, 4, 4, 0, 4},
	{"Q3", "Row", 0.01, 760, 757, 3, 658, 655, 3},
	{"Q3", "Row(Col)", 0.01, 4, 0, 4, 4, 0, 4},
	{"Q3", "Row", 0.1, 760, 757, 3, 658, 655, 3},
	{"Q3", "Row(Col)", 0.1, 22, 18, 4, 18, 14, 4},
	{"Q3", "Row", 0.5, 760, 757, 3, 658, 655, 3},
	{"Q3", "Row(Col)", 0.5, 121, 117, 4, 95, 91, 4},
	{"Q3", "Row", 1, 760, 757, 3, 658, 655, 3},
	{"Q3", "Row(Col)", 1, 226, 222, 4, 177, 173, 4},
	{"Q4", "Row", 0.01, 868, 863, 5, 755, 750, 5},
	{"Q4", "Row(Col)", 0.01, 6, 2, 4, 6, 2, 4},
	{"Q4", "Row", 0.1, 868, 863, 5, 755, 750, 5},
	{"Q4", "Row(Col)", 0.1, 27, 23, 4, 23, 19, 4},
	{"Q4", "Row", 0.5, 868, 863, 5, 755, 750, 5},
	{"Q4", "Row(Col)", 0.5, 127, 123, 4, 102, 98, 4},
	{"Q4", "Row", 1, 868, 863, 5, 755, 750, 5},
	{"Q4", "Row(Col)", 1, 238, 234, 4, 190, 186, 4},
	{"Q5", "Row", 0, 868, 863, 5, 755, 750, 5},
	{"Q5", "Row(Col)", 0, 6, 0, 6, 6, 0, 6},
	{"Q6", "Row", 0.01, 868, 863, 5, 755, 750, 5},
	{"Q6", "Row(Col)", 0.01, 10, 4, 6, 9, 3, 6},
	{"Q6", "Row", 0.1, 868, 863, 5, 755, 750, 5},
	{"Q6", "Row(Col)", 0.1, 50, 44, 6, 41, 35, 6},
	{"Q6", "Row", 0.5, 868, 863, 5, 755, 750, 5},
	{"Q6", "Row(Col)", 0.5, 237, 231, 6, 188, 182, 6},
	{"Q6", "Row", 1, 868, 863, 5, 755, 750, 5},
	{"Q6", "Row(Col)", 1, 453, 447, 6, 358, 352, 6},
	{"Q7", "Row", 0, 883, 876, 7, 769, 762, 7},
	{"Q7", "Row(Col)", 0, 75, 71, 4, 63, 59, 4},
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
