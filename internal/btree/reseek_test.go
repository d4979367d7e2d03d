package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oldelephant/internal/storage"
)

// growTree builds a random tree with the history the bits of shape pick, in
// this order: a bulk load of keys repeating up to 40 times, so runs of
// duplicates straddle leaf boundaries (bit 2); inserts of random width over
// keys that repeat, across leaves too (bit 0, or no other bit); deletes that
// empty a band of leaves (bit 1); inserts below every stored key, which
// split the leftmost leaf and lower its fence (bit 3). It returns the tree
// and the key span its keys were drawn from.
func growTree(t *testing.T, pager *storage.Pager, rng *rand.Rand, shape byte) (*BTree, int64) {
	t.Helper()
	tr := mustNew(t, pager)
	width := 1 + rng.Intn(300)
	span := int64(1)
	if shape&4 != 0 {
		i, n, dups := 0, rng.Intn(3000), 1+rng.Intn(40)
		if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
			i++
			return intKey(int64(i / dups)), bytes.Repeat([]byte("b"), width/2), i <= n
		}, 0.5+rng.Float64()/2); err != nil {
			t.Fatal(err)
		}
		span = int64(n/dups) + 1
	}
	if shape&1 != 0 || shape&0xE == 0 {
		rows := rng.Intn(3000)
		span = max(span, int64(rows/(1+rng.Intn(20)))+1) // up to 20 copies of a key
		for i := 0; i < rows; i++ {
			if err := tr.Insert(intKey(rng.Int63n(span)), bytes.Repeat([]byte("v"), rng.Intn(width))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if shape&2 != 0 {
		lo := rng.Int63n(span)
		for k := lo; k <= lo+span/3; k++ {
			for mustDelete(t, tr, intKey(k)) {
			}
		}
	}
	if shape&8 != 0 {
		for i := 0; i < rng.Intn(200); i++ {
			if err := tr.Insert(intKey(-1-rng.Int63n(50)), bytes.Repeat([]byte("w"), rng.Intn(width))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr, span
}

// walkFence is the reference for BTree.fence: the first separator above the
// leftmost leaf, found by walking the leftmost spine from the root — the key
// of the deepest internal node on it that holds one (nil for a single leaf).
func walkFence(t *testing.T, tr *BTree) []byte {
	t.Helper()
	var fence []byte
	for id := tr.RootPage(); ; {
		nd, err := tr.node(id)
		if err != nil {
			t.Fatal(err)
		}
		if nd.isLeaf() {
			return fence
		}
		if nd.n > 0 {
			fence = nd.key(0)
		}
		id = nd.child(-1)
	}
}

// descend is the reference positioning: a seek that descends from the root
// for every start, as Seek did before the tree kept a fence.
func descend(tr *BTree, start, stop []byte, stopIncl bool) *Iterator {
	if start == nil {
		return tr.Seek(nil, stop, stopIncl)
	}
	it := &Iterator{tree: tr, lo: start, startKey: start, stopKey: stop, stopIncl: stopIncl, leavesLeft: -1}
	nd, err := tr.descend(start)
	if err != nil {
		it.err = err
		return it
	}
	it.enter(nd)
	it.advanceLeaf()
	return it
}

// drain collects up to limit (< 0: all) of the iterator's entries.
func drain(t *testing.T, it *Iterator, limit int) [][2]string {
	t.Helper()
	var out [][2]string
	for limit != 0 && it.Next() {
		out = append(out, [2]string{string(it.Key()), string(it.Value())})
		limit--
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return out
}

// positionings counts how the probes of checkReseek were positioned.
type positionings struct{ fence, finger, descent int }

// checkReseek grows a tree (growTree) and holds it to three properties:
//   - its fence is the first separator above the leftmost leaf (walkFence);
//   - a cold seek from a key at or below the fence reads the leftmost leaf
//     and no internal page: one page when that leaf holds a key >= start;
//   - one iterator moved through a random, mostly ascending sequence of
//     probes by Reseek — each drained whole or in part, some ranges empty or
//     inverted, some stops open, some starts at the fence or past every key
//     — yields on every probe exactly the entries of a fresh descending seek,
//     and never descends from a start at or below the fence.
func checkReseek(t *testing.T, seed int64, shape byte, counts *positionings) {
	rng := rand.New(rand.NewSource(seed))
	pager := storage.NewPager(0)
	tr, span := growTree(t, pager, rng, shape)
	name := fmt.Sprintf("seed %d shape %#x (height %d, %d entries)", seed, shape, tr.Height(), tr.Count())

	fence := walkFence(t, tr)
	if !bytes.Equal(tr.Fence(), fence) || (fence == nil) != (tr.Height() == 1) {
		t.Fatalf("%s: fence %x, the first separator above the leftmost leaf is %x", name, tr.Fence(), fence)
	}
	if fence != nil {
		starts := [][]byte{fence, intKey(-100)}
		if first := drain(t, &Iterator{tree: tr, next: tr.FirstLeaf(), leavesLeft: 1}, 1); len(first) > 0 {
			starts = append(starts, []byte(first[0][0]))
		}
		for i, start := range starts {
			pager.ResetCache()
			before := pager.Stats()
			descend(tr, start, nil, false)
			descended := pager.Stats().Sub(before).PageReads
			pager.ResetCache()
			before = pager.Stats()
			it := tr.Seek(start, nil, false)
			// Past the leaf it starts in, a seek reads the leaves up to the
			// first with a key >= start, as the descent's seek does.
			reads := pager.Stats().Sub(before).PageReads
			if it.Start().Descended || reads != descended-int64(tr.Height()-1) || i == 2 && reads != 1 {
				t.Fatalf("%s: a cold seek from %x, at or below the fence %x, read %d pages (descended %v), a descending one %d",
					name, start, fence, reads, it.Start().Descended, descended)
			}
		}
	}

	var it *Iterator
	k := rng.Int63n(span+2) - 1
	for probe := 0; probe < 60; probe++ {
		switch r := rng.Intn(10); {
		case r == 0:
			k = rng.Int63n(span+4) - 2 // anywhere, backwards too
		case r == 1:
			k-- // above an inverted range's stop, below its start
		case r < 4:
			k += rng.Int63n(span/4 + 1) // a jump forward
		default:
			k += rng.Int63n(3) // the next key or one soon after
		}
		start := intKey(k)
		if rng.Intn(12) == 0 && fence != nil {
			start = fence
		}
		var stop []byte
		switch r := rng.Intn(16); {
		case r == 0: // open
		case r < 4:
			stop = intKey(k - 1 - rng.Int63n(3)) // below start
		default:
			stop = intKey(k + rng.Int63n(4))
		}
		incl := rng.Intn(4) > 0
		want := drain(t, descend(tr, start, stop, incl), -1)
		if it == nil {
			it = tr.Seek(start, stop, incl)
		} else {
			it.Reseek(start, stop, incl)
		}
		limit := -1
		if rng.Intn(6) == 0 {
			limit = rng.Intn(len(want) + 1)
			want = want[:limit]
		}
		if got := drain(t, it, limit); !slices.Equal(got, want) {
			t.Fatalf("%s probe %d: [%x, %x] (incl %v) re-seeks to %d entries, a descending seek finds %d", name, probe, start, stop, incl, len(got), len(want))
		}
		switch {
		case it.Start().Descended:
			counts.descent++
		case tr.Height() == 1 || bytes.Compare(start, fence) <= 0:
			counts.fence++
		default:
			counts.finger++
		}
		if it.Start().Descended && (tr.Height() == 1 || bytes.Compare(start, fence) <= 0) {
			t.Fatalf("%s probe %d: a start %x at or below the fence %x descended", name, probe, start, fence)
		}
	}
}

// FuzzReseek runs checkReseek on fuzzer-chosen seeds and tree histories. The
// checked-in corpus (testdata/fuzz/FuzzReseek) holds a bulk load whose first
// leaf ends in a run of the fence key that continues in the second leaf, and
// the same load after inserts below every key have split that leaf.
func FuzzReseek(f *testing.F) {
	for shape := byte(0); shape < 16; shape++ {
		f.Add(int64(shape), shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape byte) {
		checkReseek(t, seed, shape, &positionings{})
	})
}

// TestReseekMatchesDescent runs checkReseek over every history shape and
// checks that the probes exercised all three positionings.
func TestReseekMatchesDescent(t *testing.T) {
	var counts positionings
	for seed := int64(0); seed < 64; seed++ {
		checkReseek(t, seed, byte(seed), &counts)
	}
	if counts.fence == 0 || counts.finger == 0 || counts.descent == 0 {
		t.Fatalf("positionings: %+v; every kind must occur", counts)
	}
	t.Logf("positionings: %+v", counts)
}

// TestReseekChargesAnEvictedLeaf: a re-seek fetches the leaf where the last
// range stopped through the pager. While the leaf is resident the fetch is a
// hit; once the pool has let it go, the same re-seek pays one read for it.
func TestReseekChargesAnEvictedLeaf(t *testing.T) {
	pager := storage.NewPager(0)
	tr := mustNew(t, pager)
	i := 0
	if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		i++
		return intKey(int64(i)), bytes.Repeat([]byte("p"), 100), i <= 2000
	}, 1); err != nil {
		t.Fatal(err)
	}
	leaves, err := tr.LeafRange(nil, nil, false)
	if err != nil || len(leaves) < 8 {
		t.Fatalf("%d leaves (%v); the test needs several", len(leaves), err)
	}
	// The probes are [1000, 1001] then [1002, 1003]: the second begins in the
	// leaf where the first stopped, unless that leaf ends at 1001.
	pager.SetCapacity(4)
	for _, evict := range []bool{false, true} {
		pager.ResetCache()
		it := tr.Seek(intKey(1000), intKey(1001), true)
		if n := len(drain(t, it, -1)); n != 2 || !it.Start().Descended {
			t.Fatalf("first probe: %d entries, descended %v", n, it.Start().Descended)
		}
		if evict {
			for _, id := range leaves[:6] { // six other leaves push it out of a four-page pool
				if _, err := pager.Get(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := pager.Stats()
		it.Reseek(intKey(1002), intKey(1003), true)
		io := pager.Stats().Sub(before)
		if n := len(drain(t, it, -1)); n != 2 || it.Start().Descended {
			t.Fatalf("re-seek: %d entries, descended %v", n, it.Start().Descended)
		}
		want := int64(0)
		if evict {
			want = 1
		}
		if io.PageReads != want {
			t.Errorf("evicted %v: the re-seek read %d pages (%d hits), want %d", evict, io.PageReads, io.CacheHits, want)
		}
	}
}
