package btree

import (
	"fmt"
	"sync"
	"testing"

	"oldelephant/internal/storage"
)

// TestConcurrentLeafPagesAndScans pins the read-path thread-safety the
// serving layer relies on: concurrent goroutines racing to fill the
// memoized leaf-page cache (an atomic pointer; this test caught the original
// unsynchronized write under -race), scanning, seeking and walking leaf
// ranges of one shared tree.
func TestConcurrentLeafPagesAndScans(t *testing.T) {
	tree := mustNew(t, storage.NewPager(0))
	const n = 5000
	i := 0
	err := tree.BulkLoad(func() ([]byte, []byte, bool) {
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
	allLeaves, err := tree.LeafPages()
	if err != nil {
		t.Fatal(err)
	}
	wantLeaves := len(allLeaves)
	if wantLeaves < 2 {
		t.Fatalf("tree has %d leaves; need several for a meaningful test", wantLeaves)
	}
	// Invalidate so the goroutines race to refill the memo.
	if err := tree.Insert([]byte("key999999"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				leaves, err := tree.LeafPages()
				if err != nil {
					errs <- err
					return
				}
				if len(leaves) == 0 {
					errs <- fmt.Errorf("LeafPages returned empty")
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
	leaves, err := tree.LeafPages()
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
// concatenating SeekLeaves iterators reproduces the serial Seek exactly —
// the contract the catalog's seek morsels are built on.
func TestSeekLeavesReproducesSeek(t *testing.T) {
	tree := mustNew(t, storage.NewPager(0))
	const n = 3000
	i := 0
	err := tree.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		// Duplicate keys every 3rd entry exercise the duplicate-run paths.
		key := []byte(fmt.Sprintf("k%05d", (i/3)*3))
		val := []byte(fmt.Sprintf("v%05d", i))
		i++
		return key, val, true
	}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		start, stop string
		stopIncl    bool
	}{
		{"interior", "k00300", "k01500", true},
		{"interior-exclusive-stop", "k00300", "k01500", false},
		{"open-start", "", "k00900", true},
		{"open-stop", "k02400", "", false},
		{"full", "", "", false},
		{"equality", "k00600", "k00600", true},
		{"empty", "k00301", "k00302", true},
		{"past-end", "k99990", "", false},
	}
	for _, tc := range cases {
		var start, stop []byte
		if tc.start != "" {
			start = []byte(tc.start)
		}
		if tc.stop != "" {
			stop = []byte(tc.stop)
		}
		var want []string
		it := tree.Seek(start, stop, tc.stopIncl)
		for it.Next() {
			want = append(want, string(it.Key())+"="+string(it.Value()))
		}
		leaves, err := tree.LeafRange(start, stop, tc.stopIncl)
		if err != nil {
			t.Fatal(err)
		}
		for _, per := range []int{1, 2, 5, len(leaves) + 1} {
			if per < 1 {
				per = 1
			}
			var got []string
			for i := 0; i < len(leaves); i += per {
				count := per
				if i+count > len(leaves) {
					count = len(leaves) - i
				}
				var startKey []byte
				if i == 0 {
					startKey = start
				}
				mit := tree.SeekLeaves(leaves[i], count, startKey, stop, tc.stopIncl)
				for mit.Next() {
					got = append(got, string(mit.Key())+"="+string(mit.Value()))
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s per=%d: got %d entries, want %d", tc.name, per, len(got), len(want))
				continue
			}
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("%s per=%d: entry %d = %s, want %s", tc.name, per, j, got[j], want[j])
					break
				}
			}
		}
	}
}
