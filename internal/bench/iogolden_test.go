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
// Two recordings are kept. before* is PR 19's, under record layout version 3,
// which framed every record with a marker, a key length and a 4-byte slot and
// every payload field with a kind byte; reads/seq/rand is the current one,
// under version 4's page-header geometry, 2-byte slots and schema-directed
// payloads. The current recording must match exactly, and may differ from
// the old one in one direction only: no cell reads more pages, sequentially
// or at random, than it did.
var ioGolden = []struct {
	q                                  QueryID
	s                                  Strategy
	sel                                float64
	beforeReads, beforeSeq, beforeRand int64
	reads, seq, rand                   int64
}{
	{"Q1", "Row", 0.01, 658, 655, 3, 539, 537, 2},
	{"Q1", "Row(Col)", 0.01, 2, 0, 2, 2, 0, 2},
	{"Q1", "Row", 0.1, 658, 655, 3, 539, 537, 2},
	{"Q1", "Row(Col)", 0.1, 3, 1, 2, 2, 0, 2},
	{"Q1", "Row", 0.5, 658, 655, 3, 539, 537, 2},
	{"Q1", "Row(Col)", 0.5, 9, 7, 2, 7, 5, 2},
	{"Q1", "Row", 1, 658, 655, 3, 539, 537, 2},
	{"Q1", "Row(Col)", 1, 9, 7, 2, 7, 5, 2},
	{"Q2", "Row", 0, 658, 655, 3, 539, 537, 2},
	{"Q2", "Row(Col)", 0, 4, 0, 4, 4, 0, 4},
	{"Q3", "Row", 0.01, 658, 655, 3, 539, 537, 2},
	{"Q3", "Row(Col)", 0.01, 4, 0, 4, 4, 0, 4},
	{"Q3", "Row", 0.1, 658, 655, 3, 539, 537, 2},
	{"Q3", "Row(Col)", 0.1, 18, 14, 4, 14, 10, 4},
	{"Q3", "Row", 0.5, 658, 655, 3, 539, 537, 2},
	{"Q3", "Row(Col)", 0.5, 95, 91, 4, 73, 69, 4},
	{"Q3", "Row", 1, 658, 655, 3, 539, 537, 2},
	{"Q3", "Row(Col)", 1, 177, 173, 4, 136, 132, 4},
	{"Q4", "Row", 0.01, 755, 750, 5, 618, 614, 4},
	{"Q4", "Row(Col)", 0.01, 6, 2, 4, 6, 2, 4},
	{"Q4", "Row", 0.1, 755, 750, 5, 618, 614, 4},
	{"Q4", "Row(Col)", 0.1, 23, 19, 4, 18, 14, 4},
	{"Q4", "Row", 0.5, 755, 750, 5, 618, 614, 4},
	{"Q4", "Row(Col)", 0.5, 102, 98, 4, 80, 76, 4},
	{"Q4", "Row", 1, 755, 750, 5, 618, 614, 4},
	{"Q4", "Row(Col)", 1, 190, 186, 4, 149, 145, 4},
	{"Q5", "Row", 0, 755, 750, 5, 618, 614, 4},
	{"Q5", "Row(Col)", 0, 6, 0, 6, 6, 0, 6},
	{"Q6", "Row", 0.01, 755, 750, 5, 618, 614, 4},
	{"Q6", "Row(Col)", 0.01, 9, 3, 6, 9, 3, 6},
	{"Q6", "Row", 0.1, 755, 750, 5, 618, 614, 4},
	{"Q6", "Row(Col)", 0.1, 41, 35, 6, 32, 26, 6},
	{"Q6", "Row", 0.5, 755, 750, 5, 618, 614, 4},
	{"Q6", "Row(Col)", 0.5, 188, 182, 6, 146, 140, 6},
	{"Q6", "Row", 1, 755, 750, 5, 618, 614, 4},
	{"Q6", "Row(Col)", 1, 358, 352, 6, 278, 272, 6},
	{"Q7", "Row", 0, 769, 762, 7, 630, 624, 6},
	{"Q7", "Row(Col)", 0, 63, 59, 4, 53, 49, 4},
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
