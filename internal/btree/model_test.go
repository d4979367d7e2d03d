package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// storedKey is the catalog's stored-key encoding of an INT leading column,
// and storedNumber its key number: what a bulk-loaded table keyed on an INT
// gives its tree.
func storedKey(k int64) []byte { return value.AppendStoredKeyValue(nil, value.NewInt(k)) }

func storedNumber(key []byte) (float64, bool) { return value.KeyNumber(key, value.KindInt) }

// withoutModel runs f on tr as if it had no leaf model, so every bounded
// start descends from the root: the reference a predicted start must match.
func withoutModel(tr *BTree, f func()) {
	m := tr.model
	tr.model = nil
	defer func() { tr.model = m }()
	f()
}

// predictedSeeks counts what checkPredictedSeek saw, across calls.
type predictedSeeks struct{ trees, modeled, predicted, splits int }

// checkPredictedSeek bulk-loads sorted integer keys — runs of duplicates,
// random gaps and, at the fuzzer's choice, rare jumps that skew the keys —
// into a tree with a key number, then interleaves inserts, small ones that
// fit their leaf and wide ones that split it, with Get, Seek and Reseek
// calls. Each call on the tree, with its model while it keeps one, returns
// exactly what the same tree returns forced to descend; a predicted start
// walks at most the model's window; and the model is gone after a split.
func checkPredictedSeek(t *testing.T, seed int64, n uint16, gap, dups uint8, ops uint16, counts *predictedSeeks) {
	rng := rand.New(rand.NewSource(seed))
	pager := storage.NewPager(0)
	tr := mustNew(t, pager)
	tr.SetKeyNumber(storedNumber)
	rows := int(n % 6000)
	k := -rng.Int63n(1000)
	lo := k
	width := 8 + rng.Intn(60)
	i, run := 0, 0
	if err := loadSorted(tr, func() ([]byte, []byte, bool) {
		if i >= rows {
			return nil, nil, false
		}
		if run == 0 {
			run = 1 + rng.Intn(int(dups)+1)
			k += rng.Int63n(int64(gap) + 1)
			if gap > 0 && rng.Intn(int(gap)+200) == 0 {
				k += rng.Int63n(1 << 40)
			}
		}
		run--
		i++
		return storedKey(k), bytes.Repeat([]byte{byte(i)}, width), true
	}, 0.7+rng.Float64()*0.3); err != nil {
		t.Fatal(err)
	}
	hi := k
	name := fmt.Sprintf("seed %d, %d rows, gap %d, dups %d (height %d)", seed, rows, gap, dups, tr.Height())
	counts.trees++
	if m := tr.Model(); m != nil {
		counts.modeled++
		if !m.Valid() || tr.Height() < 2 || m.Leaves < 2 {
			t.Fatalf("%s: an invalid model %+v", name, *m)
		}
	}
	near := func() int64 { return lo - 5 + rng.Int63n(hi-lo+11) }
	key := func() []byte {
		k := near()
		if rng.Intn(20) == 0 {
			k = lo + rng.Int63n(max(hi-lo, 1)) // a jump's empty middle, when there is one
		}
		key := storedKey(k)
		if rng.Intn(4) == 0 {
			key = append(key, 0xFF) // an exclusive start: past every entry of k
		}
		return key
	}
	check := func(op string, got, want [][2]string, st Start) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s returned %d entries, the descending tree %d", name, op, len(got), len(want))
		}
		if st.Predicted {
			counts.predicted++
			if m := tr.Model(); m == nil || st.Hops > m.Window {
				t.Fatalf("%s: %s walked %d leaves from its predicted one, model %+v", name, op, st.Hops, m)
			}
		}
	}
	var it, ref *Iterator
	for op := 0; op < int(ops%400); op++ {
		switch r := rng.Intn(10); {
		case r == 0: // an insert; one in four splits its leaf if it can
			w := rng.Intn(40)
			if rng.Intn(4) == 0 {
				w = MaxEntry - 16
			}
			had := tr.Model() != nil
			height, leaves := tr.Height(), mustLeaves(t, tr)
			if err := tr.Insert(storedKey(near()), bytes.Repeat([]byte("i"), w)); err != nil {
				t.Fatal(err)
			}
			it, ref = nil, nil // an iterator reads a tree as it was until the next mutation
			if split := tr.Height() != height || mustLeaves(t, tr) != leaves; split {
				counts.splits++
				if tr.Model() != nil {
					t.Fatalf("%s: a split kept the model (had one: %v)", name, had)
				}
			}
		case r < 3:
			k := key()
			got, ok := mustGet(t, tr, k)
			var want []byte
			var wantOK bool
			withoutModel(tr, func() { want, wantOK = mustGet(t, tr, k) })
			if ok != wantOK || !bytes.Equal(got, want) {
				t.Fatalf("%s: Get(%x) = %x %v, the descending tree %x %v", name, k, got, ok, want, wantOK)
			}
		default:
			start := key()
			var stop []byte
			if rng.Intn(8) > 0 {
				stop = storedKey(near())
			}
			incl := rng.Intn(2) == 0
			if it == nil || rng.Intn(4) == 0 {
				it = tr.Seek(start, stop, incl)
				withoutModel(tr, func() { ref = tr.Seek(start, stop, incl) })
			} else {
				it.Reseek(start, stop, incl)
				withoutModel(tr, func() { ref.Reseek(start, stop, incl) })
			}
			limit := 1 + rng.Intn(300)
			check("seek", drain(t, it, limit), drain(t, ref, limit), it.Start())
		}
	}
}

// mustLeaves is the tree's leaf count.
func mustLeaves(t *testing.T, tr *BTree) int {
	t.Helper()
	n, err := tr.LeafCount()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// FuzzPredictedSeek runs checkPredictedSeek on fuzzer-chosen histories.
func FuzzPredictedSeek(f *testing.F) {
	f.Add(int64(1), uint16(3000), uint8(1), uint8(0), uint16(300))
	f.Add(int64(2), uint16(5000), uint8(7), uint8(30), uint16(300))
	f.Add(int64(3), uint16(2000), uint8(200), uint8(3), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, gap, dups uint8, ops uint16) {
		checkPredictedSeek(t, seed, n, gap, dups, ops, &predictedSeeks{})
	})
}

// TestPredictedSeekMatchesDescent runs checkPredictedSeek over dense, gapped,
// duplicated and skewed loads, and checks that trees kept models, seeks were
// predicted and inserts split leaves.
func TestPredictedSeekMatchesDescent(t *testing.T) {
	var counts predictedSeeks
	for seed := int64(0); seed < 40; seed++ {
		checkPredictedSeek(t, seed, uint16(500+seed*97), uint8(seed%5*7), uint8(seed%4*9), 300, &counts)
	}
	if counts.modeled == 0 || counts.modeled == counts.trees || counts.predicted == 0 || counts.splits == 0 {
		t.Fatalf("%+v: want trees with and without models, predicted seeks and splits", counts)
	}
	t.Logf("%+v", counts)
}

// TestModelSkipsTheRoot: a cold seek on a bulk-loaded tree with a model reads
// the predicted leaf at random and the leaves it walks in sequence, no
// internal page; the same seek forced to descend reads the root first.
func TestModelSkipsTheRoot(t *testing.T) {
	pager := storage.NewPager(0)
	tr := mustNew(t, pager)
	tr.SetKeyNumber(storedNumber)
	i := 0
	if err := loadSorted(tr, func() ([]byte, []byte, bool) {
		i++
		return storedKey(int64(i)), bytes.Repeat([]byte("v"), 40), i <= 20000
	}, 0.95); err != nil {
		t.Fatal(err)
	}
	m := tr.Model()
	if m == nil || tr.Height() < 2 {
		t.Fatalf("a dense load of 20,000 keys kept model %+v at height %d", m, tr.Height())
	}
	for _, k := range []int64{777, 10000, 19999, 20000, 25000} {
		cold := func() (storage.IOStats, bool) {
			pager.ResetCache()
			before := pager.Stats()
			_, ok := mustGet(t, tr, storedKey(k))
			return pager.Stats().Sub(before), ok
		}
		io, ok := cold()
		var ref storage.IOStats
		var refOK bool
		withoutModel(tr, func() { ref, refOK = cold() })
		if ok != refOK || ok != (k <= 20000) {
			t.Fatalf("Get(%d) found %v, the descending tree %v", k, ok, refOK)
		}
		if io.RandReads != 1 || io.SeqReads > int64(m.Window) || ref.RandReads != int64(tr.Height()) {
			t.Errorf("Get(%d): predicted %+v, descending %+v; want 1 random read and at most %d sequential", k, io, ref, m.Window)
		}
	}
}
