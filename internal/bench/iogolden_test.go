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
// Two recordings are kept. before* is PR 13's, under the leaf format that
// suffixed every key with a uniquifier and repeated key columns in the
// payload; reads/seq/rand is the current one, under the store-every-column-
// once format. The current recording must match exactly, and may differ from
// the old one in one direction only: no cell reads more pages, sequentially
// or at random, than it did.
var ioGolden = []struct {
	q                                  QueryID
	s                                  Strategy
	sel                                float64
	beforeReads, beforeSeq, beforeRand int64
	reads, seq, rand                   int64
}{
	{"Q1", "Row", 0.01, 878, 875, 3, 760, 757, 3},
	{"Q1", "Row(Col)", 0.01, 2, 0, 2, 2, 0, 2},
	{"Q1", "Row", 0.1, 878, 875, 3, 760, 757, 3},
	{"Q1", "Row(Col)", 0.1, 3, 1, 2, 3, 1, 2},
	{"Q1", "Row", 0.5, 878, 875, 3, 760, 757, 3},
	{"Q1", "Row(Col)", 0.5, 15, 13, 2, 11, 9, 2},
	{"Q1", "Row", 1, 878, 875, 3, 760, 757, 3},
	{"Q1", "Row(Col)", 1, 15, 13, 2, 11, 9, 2},
	{"Q2", "Row", 0, 878, 875, 3, 760, 757, 3},
	{"Q2", "Row(Col)", 0, 5, 0, 5, 4, 0, 4},
	{"Q3", "Row", 0.01, 878, 875, 3, 760, 757, 3},
	{"Q3", "Row(Col)", 0.01, 5, 0, 5, 4, 0, 4},
	{"Q3", "Row", 0.1, 878, 875, 3, 760, 757, 3},
	{"Q3", "Row(Col)", 0.1, 31, 26, 5, 22, 18, 4},
	{"Q3", "Row", 0.5, 878, 875, 3, 760, 757, 3},
	{"Q3", "Row(Col)", 0.5, 177, 172, 5, 121, 117, 4},
	{"Q3", "Row", 1, 878, 875, 3, 760, 757, 3},
	{"Q3", "Row(Col)", 1, 331, 326, 5, 226, 222, 4},
	{"Q4", "Row", 0.01, 1012, 1007, 5, 868, 863, 5},
	{"Q4", "Row(Col)", 0.01, 8, 3, 5, 6, 2, 4},
	{"Q4", "Row", 0.1, 1012, 1007, 5, 868, 863, 5},
	{"Q4", "Row(Col)", 0.1, 38, 33, 5, 27, 23, 4},
	{"Q4", "Row", 0.5, 1012, 1007, 5, 868, 863, 5},
	{"Q4", "Row(Col)", 0.5, 183, 178, 5, 127, 123, 4},
	{"Q4", "Row", 1, 1012, 1007, 5, 868, 863, 5},
	{"Q4", "Row(Col)", 1, 344, 339, 5, 238, 234, 4},
	{"Q5", "Row", 0, 1012, 1007, 5, 868, 863, 5},
	{"Q5", "Row(Col)", 0, 9, 1, 8, 6, 0, 6},
	{"Q6", "Row", 0.01, 1012, 1007, 5, 868, 863, 5},
	{"Q6", "Row(Col)", 0.01, 14, 6, 8, 10, 4, 6},
	{"Q6", "Row", 0.1, 1012, 1007, 5, 868, 863, 5},
	{"Q6", "Row(Col)", 0.1, 71, 63, 8, 50, 44, 6},
	{"Q6", "Row", 0.5, 1012, 1007, 5, 868, 863, 5},
	{"Q6", "Row(Col)", 0.5, 345, 337, 8, 237, 231, 6},
	{"Q6", "Row", 1, 1012, 1007, 5, 868, 863, 5},
	{"Q6", "Row(Col)", 1, 660, 652, 8, 453, 447, 6},
	{"Q7", "Row", 0, 1029, 1022, 7, 883, 876, 7},
	{"Q7", "Row(Col)", 0, 101, 96, 5, 75, 71, 4},
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
