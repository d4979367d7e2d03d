package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"oldelephant/internal/storage"
)

// TestConcurrentLeafRangesAndScans pins the read-path thread-safety the
// serving layer relies on: concurrent goroutines naming leaf ranges, open and
// bounded, scanning and seeking one shared tree.
func TestConcurrentLeafRangesAndScans(t *testing.T) {
	tree := mustNew(t, storage.NewPager(0))
	const n = 5000
	i := 0
	err := loadSorted(tree, func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		key := []byte(fmt.Sprintf("key%06d", i))
		val := []byte(fmt.Sprintf("val%06d", i))
		i++
		return key, val, true
	}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	allLeaves, err := tree.LeafRange(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if wantLeaves := len(allLeaves); wantLeaves < 2 {
		t.Fatalf("tree has %d leaves; need several for a meaningful test", wantLeaves)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				leaves, err := tree.LeafRange(nil, nil, false)
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(leaves, allLeaves) {
					errs <- fmt.Errorf("LeafRange(nil, nil) returned %d leaves, want %d", len(leaves), len(allLeaves))
					return
				}
				lo := []byte(fmt.Sprintf("key%06d", g*500))
				hi := []byte(fmt.Sprintf("key%06d", g*500+200))
				rng, err := tree.LeafRange(lo, hi, true)
				if err != nil {
					errs <- err
					return
				}
				count := 0
				it := tree.Seek(lo, hi, true)
				for it.Next() {
					count++
				}
				if count != 201 {
					errs <- fmt.Errorf("seek [%s,%s] returned %d keys, want 201", lo, hi, count)
					return
				}
				if len(rng) == 0 {
					errs <- fmt.Errorf("LeafRange empty for a non-empty seek")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentScansUnderEviction: parallel scans and seeks over a
// capacity-8 pool, the way morsel workers share one buffer pool, evict each
// other's leaves constantly and read them back from the spill file; every
// span of every batch still equals its record.
func TestConcurrentScansUnderEviction(t *testing.T) {
	const n = 3000
	tree, pager := boundedTree(t, 8, n)
	pager.ResetCache()
	leaves, err := tree.LeafRange(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the workers drain leaf runs (a morsel each), half seek.
			for iter := 0; iter < 4; iter++ {
				first, it := 0, tree.Scan()
				if g%2 == 0 {
					start := (g*7 + iter*13) % len(leaves)
					it = tree.SeekLeaves(leaves[start], 5, nil, nil, false)
					first = -1
				} else {
					first = (g*311 + iter*97) % (n - 400)
					it = tree.Seek(poolKey(first), poolKey(first+399), true)
				}
				keys, vals := make([][]byte, 64), make([][]byte, 64)
				for {
					got := it.NextSpans(keys, vals)
					for i := 0; i < got; i++ {
						var k int
						if _, err := fmt.Sscanf(string(keys[i]), "key%06d", &k); err != nil || string(vals[i]) != string(poolVal(k)) || (first >= 0 && k != first) {
							errs <- fmt.Errorf("worker %d: span %q does not match its record", g, keys[i])
							return
						}
						if first >= 0 {
							first++
						}
					}
					if got < len(vals) {
						break
					}
				}
				if err := it.Err(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r := pager.Resident(); r > 8 {
		t.Fatalf("a capacity-8 pool keeps %d frames", r)
	}
}

// TestSeekLeavesReproducesSeek: partitioning a seek's leaf range and
// concatenating SeekLeaves iterators reproduces the serial Seek exactly — the
// contract the catalog's seek morsels are built on — on random trees
// (randomTrees) under bounds of every shape: interior, exclusive stop, open
// on either side or both, an equality on a stored key (often a run of
// duplicates), an empty interval and one past the end. Each leaf range is first held to the leaf
// chain (checkLeafRange).
func TestSeekLeavesReproducesSeek(t *testing.T) {
	randomTrees(t, 10, func(tr *BTree, pager *storage.Pager, rng *rand.Rand, stage string, deleted bool) {
		ref := leafChain(t, tr)
		var stored [][]byte
		for _, ks := range ref.keys {
			stored = append(stored, ks...)
		}
		// pick is a stored key or, on an empty tree, an arbitrary one.
		pick := func() []byte {
			if len(stored) == 0 {
				return intKey(rng.Int63n(100))
			}
			return stored[rng.Intn(len(stored))]
		}
		lo, hi := pick(), pick()
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		eq := pick()
		cases := []struct {
			name        string
			start, stop []byte
			stopIncl    bool
		}{
			{"interior", lo, hi, true},
			{"interior-exclusive-stop", lo, hi, false},
			{"open-start", nil, hi, true},
			{"open-stop", lo, nil, false},
			{"full", nil, nil, false},
			{"equality", eq, eq, true},
			{"empty", hi, lo, false},
			{"past-end", intKey(1 << 40), nil, false},
		}
		for _, tc := range cases {
			var want []string
			it := tr.Seek(tc.start, tc.stop, tc.stopIncl)
			for it.Next() {
				want = append(want, string(it.Key())+"="+string(it.Value()))
			}
			leaves := checkLeafRange(t, tr, pager, ref, stage+" "+tc.name, tc.start, tc.stop, tc.stopIncl, deleted)
			for _, per := range []int{1, 3, len(leaves) + 1} {
				var got []string
				for i := 0; i < len(leaves); i += per {
					var startKey []byte
					if i == 0 {
						startKey = tc.start
					}
					mit := tr.SeekLeaves(leaves[i], min(per, len(leaves)-i), startKey, tc.stop, tc.stopIncl)
					for mit.Next() {
						got = append(got, string(mit.Key())+"="+string(mit.Value()))
					}
					if mit.Err() != nil {
						t.Fatal(mit.Err())
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s per=%d: the partition yields %d entries, the seek %d", stage, tc.name, per, len(got), len(want))
				}
			}
		}
	})
}
