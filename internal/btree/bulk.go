package btree

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"oldelephant/internal/storage"
)

// Leaves are the leaves of a bulk load laid out and not yet written: every
// leaf's page image and first key, and the number of entries they hold.
// LayOut makes them on any number of goroutines; WriteLeaves writes them to
// pages, which is all that depends on the page ids the pager hands out.
type Leaves struct {
	images    [][]byte
	firstKeys [][]byte
	count     int64
	target    int // the bytes a node is filled to
}

// LayOut packs n entries, sorted by key — at(i) returns the i-th — into
// leaves filled to fillFactor (0 < f <= 1) and lays each leaf's page out, on
// up to workers goroutines. Where the leaves break depends on the entries'
// sizes alone: they are read, and the order checked, in parallel stripes,
// the leaves cut in one pass over the sizes, and laid out in parallel. at
// must be safe to call from several goroutines. It returns an error if the
// entries are not sorted; equal keys are allowed.
func LayOut(n int, at func(i int) (key, val []byte), fillFactor float64, workers int) (*Leaves, error) {
	if fillFactor <= 0 || fillFactor > 1 {
		fillFactor = 1.0
	}
	target := int(float64(usableBytes) * fillFactor)
	lens := make([][2]int32, n)
	var unsorted atomic.Bool
	inStripes(n, workers, func(lo, hi int) {
		var last []byte
		if lo > 0 {
			last, _ = at(lo - 1)
		}
		for i := lo; i < hi; i++ {
			key, val := at(i)
			if i > 0 && bytes.Compare(key, last) < 0 {
				unsorted.Store(true)
				return
			}
			lens[i], last = [2]int32{int32(len(key)), int32(len(val))}, key
		}
	})
	if unsorted.Load() {
		return nil, fmt.Errorf("btree: bulk load input not sorted")
	}
	// A leaf is cut where the next entry would take it past the target.
	starts := []int{0}
	var size nodeSize
	for i, l := range lens {
		k, v := int(l[0]), int(l[1])
		if i > starts[len(starts)-1] && size.with(k, v, storage.TupleOverhead).total() > target {
			starts, size = append(starts, i), nodeSize{}
		}
		size.add(k, v, storage.TupleOverhead)
	}
	starts = append(starts, n)
	leaves := &Leaves{images: make([][]byte, len(starts)-1), firstKeys: make([][]byte, len(starts)-1), count: int64(n), target: target}
	errs := make([]error, len(leaves.images))
	var next atomic.Int64
	inStripes(len(leaves.images), workers, func(int, int) {
		var ents []entry
		for j := int(next.Add(1) - 1); j < len(leaves.images); j = int(next.Add(1) - 1) {
			ents = ents[:0]
			for i := starts[j]; i < starts[j+1]; i++ {
				key, val := at(i)
				ents = append(ents, entry{key: key, val: val})
			}
			leaves.images[j] = make([]byte, storage.PageSize)
			errs[j] = layNode(leaves.images[j], true, ents)
			if len(ents) > 0 {
				leaves.firstKeys[j] = append([]byte(nil), ents[0].key...)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return leaves, nil
}

// inStripes runs task over up to workers stripes of [0, n), each on a
// goroutine of its own, and waits for them.
func inStripes(n, workers int, task func(lo, hi int)) {
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task(w*n/workers, (w+1)*n/workers)
		}()
	}
	task(0, n/workers)
	wg.Wait()
}

// WriteLeaves replaces the tree's contents with laid-out leaves: it writes
// them to fresh pages in order, each linked to the next, and builds the
// internal levels bottom-up. The pages take the leaves' images over, so
// leaves are written once. From the leaves' page ids and first keys it fits
// the leaf model (fitModel), kept when the tree has a key number and the fit
// qualifies.
func (t *BTree) WriteLeaves(l *Leaves) error {
	leafIDs := make([]storage.PageID, len(l.images))
	for j, img := range l.images {
		pg, err := t.pager.AllocateImage(img)
		if err != nil {
			return err
		}
		if j > 0 {
			prev, err := t.pager.Get(leafIDs[j-1])
			if err != nil {
				return err
			}
			t.pager.BeforeWrite(prev)
			prev.SetAux(uint64(pg.ID()))
		}
		leafIDs[j] = pg.ID()
	}
	t.count, t.first, t.fence = l.count, leafIDs[0], nil
	if len(l.firstKeys) > 1 {
		t.fence = l.firstKeys[1]
	}
	t.model = fitModel(t.num, leafIDs, l.firstKeys)
	// Build internal levels.
	level := leafIDs
	keys := l.firstKeys
	t.height = 1
	for len(level) > 1 {
		var nextLevel []storage.PageID
		var nextKeys [][]byte
		i := 0
		for i < len(level) {
			// Each internal node gets as many children as fit.
			leftmost := level[i]
			nodeFirstKey := keys[i]
			i++
			var ents []entry
			var size nodeSize
			for ; i < len(level); i++ {
				e := entry{key: keys[i], val: childPayload(level[i])}
				if len(ents) > 0 && size.with(len(e.key), len(e.val), 0).total() > l.target {
					break
				}
				ents = append(ents, e)
				size.add(len(e.key), len(e.val), 0)
			}
			pg, err := t.pager.Allocate()
			if err != nil {
				return err
			}
			if err := writeNode(pg, false, ents, uint64(leftmost)); err != nil {
				return err
			}
			nextLevel = append(nextLevel, pg.ID())
			nextKeys = append(nextKeys, nodeFirstKey)
		}
		level = nextLevel
		keys = nextKeys
		t.height++
	}
	t.root = level[0]
	return nil
}
