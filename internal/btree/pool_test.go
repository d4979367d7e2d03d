package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"oldelephant/internal/storage"
)

// poolKey and poolVal are record i of the bounded-pool tests: wide enough
// payloads that a few dozen records fill a leaf.
func poolKey(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
func poolVal(i int) []byte { return []byte(fmt.Sprintf("val%06d-%0120d", i, i)) }

// boundedTree bulk-loads n pool records into a tree over a pager whose pool
// holds capacity pages, so the load itself evicts and spills.
func boundedTree(t *testing.T, capacity, n int) (*BTree, *storage.Pager) {
	t.Helper()
	pager := storage.NewPager(capacity)
	t.Cleanup(func() { _ = pager.CloseFile() })
	tr := mustNew(t, pager)
	i := 0
	if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		i++
		return poolKey(i - 1), poolVal(i - 1), true
	}, 1); err != nil {
		t.Fatal(err)
	}
	return tr, pager
}

// TestSpansOutliveEviction: one NextSpans batch over a capacity-1 pool spans
// every leaf of the tree, so each leaf but the last is evicted while the
// batch still points into it. The spans keep their frames alive: after a
// collection, every span still equals its record.
func TestSpansOutliveEviction(t *testing.T) {
	const n = 2000
	tr, pager := boundedTree(t, 1, n)
	leaves, err := tr.LeafPages()
	if err != nil || len(leaves) < 10 {
		t.Fatalf("tree has %d leaves (err %v), want dozens", len(leaves), err)
	}
	pager.ResetCache()
	keys, vals := make([][]byte, n+1), make([][]byte, n+1)
	it := tr.Scan()
	if got := it.NextSpans(keys, vals); got != n || it.Err() != nil {
		t.Fatalf("NextSpans filled %d spans (err %v), want %d", got, it.Err(), n)
	}
	if r := pager.Resident(); r > 1 {
		t.Fatalf("a capacity-1 pool keeps %d frames", r)
	}
	runtime.GC()
	for i := 0; i < n; i++ {
		if string(keys[i]) != string(poolKey(i)) || string(vals[i]) != string(poolVal(i)) {
			t.Fatalf("span %d = %q/%q after its leaf was evicted", i, keys[i], vals[i][:12])
		}
	}
}

// TestSplitUnderSmallPool: random inserts into a tree over a capacity-2 pool,
// where a split's Allocate evicts the node being split between its read and
// its rewrite, lose no entry and keep key order. Wide keys make the tree
// split at both of its inner levels.
func TestSplitUnderSmallPool(t *testing.T) {
	pager := storage.NewPager(2)
	defer pager.CloseFile()
	tr := mustNew(t, pager)
	const n = 3000
	wideKey := func(i int) []byte { return append(poolKey(i), bytes.Repeat([]byte{'.'}, 200)...) }
	order := rand.New(rand.NewSource(5)).Perm(n)
	for _, i := range order {
		if err := tr.Insert(wideKey(i), poolVal(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: want splits at two levels", tr.Height())
	}
	pager.ResetCache()
	var got []string
	for it := tr.Scan(); it.Next(); {
		if string(it.Value()) != string(poolVal(len(got))) {
			t.Fatalf("entry %d carries the wrong payload", len(got))
		}
		got = append(got, string(it.Key()))
	}
	if len(got) != n || tr.Count() != n || !slices.IsSorted(got) {
		t.Fatalf("scan returned %d sorted=%v entries, count %d; want %d", len(got), slices.IsSorted(got), tr.Count(), n)
	}
	for _, i := range order[:200] {
		if v, ok := mustGet(t, tr, wideKey(i)); !ok || string(v) != string(poolVal(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, v, ok)
		}
	}
}
