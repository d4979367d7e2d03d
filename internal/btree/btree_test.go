package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

func intKey(i int64) []byte {
	return value.EncodeKey(nil, []value.Value{value.NewInt(i)})
}

// mustNew / mustGet / mustDelete unwrap the page-I/O error returns: in these
// in-memory tests a page error is a harness bug, not a condition under test.
func mustNew(tb testing.TB, pager *storage.Pager) *BTree {
	tb.Helper()
	tr, err := New(pager)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return tr
}

func mustGet(t *testing.T, tr *BTree, key []byte) ([]byte, bool) {
	t.Helper()
	v, ok, err := tr.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	return v, ok
}

func mustDelete(t *testing.T, tr *BTree, key []byte) bool {
	t.Helper()
	ok, err := tr.Delete(key)
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	return ok
}

func TestEmptyTree(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	if tr.Count() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree count=%d height=%d", tr.Count(), tr.Height())
	}
	if _, ok := mustGet(t, tr, intKey(1)); ok {
		t.Error("Get on empty tree should miss")
	}
	it := tr.Scan()
	if it.Next() {
		t.Error("Scan on empty tree should be empty")
	}
}

func TestInsertAndGetSequential(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	const n = 20000
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Count() != n {
		t.Fatalf("Count = %d", tr.Count())
	}
	if tr.Height() < 2 {
		t.Fatalf("expected multi-level tree, height=%d", tr.Height())
	}
	for _, i := range []int64{0, 1, 777, n / 2, n - 1} {
		v, ok := mustGet(t, tr, intKey(i))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Errorf("Get(%d) = %q, %v", i, v, ok)
		}
	}
	if _, ok := mustGet(t, tr, intKey(n+10)); ok {
		t.Error("Get of missing key should fail")
	}
}

func TestInsertRandomOrderFullScanSorted(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	rng := rand.New(rand.NewSource(7))
	const n = 8000
	perm := rng.Perm(n)
	for _, i := range perm {
		if err := tr.Insert(intKey(int64(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.Scan()
	prev := []byte(nil)
	count := 0
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) > 0 {
			t.Fatalf("scan out of order at entry %d", count)
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != n {
		t.Fatalf("scan saw %d entries, want %d", count, n)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	for i := 0; i < 100; i++ {
		if err := tr.Insert(intKey(42), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(intKey(7), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.Seek(intKey(42), intKey(42), true)
	count := 0
	for it.Next() {
		count++
	}
	if count != 100 {
		t.Errorf("found %d duplicates of 42, want 100", count)
	}
}

func TestSeekRanges(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(intKey(int64(i*2)), []byte("x")); err != nil { // even keys 0..1998
			t.Fatal(err)
		}
	}
	collect := func(it *Iterator) []int64 {
		var out []int64
		for it.Next() {
			// decode the single int key back via scanning all possible; simpler: track via value pkg
			out = append(out, decodeIntKey(t, it.Key()))
		}
		return out
	}
	// [100, 110] inclusive
	got := collect(tr.Seek(intKey(100), intKey(110), true))
	want := []int64{100, 102, 104, 106, 108, 110}
	if !equalInts(got, want) {
		t.Errorf("inclusive range = %v, want %v", got, want)
	}
	// [100, 110) exclusive
	got = collect(tr.Seek(intKey(100), intKey(110), false))
	want = []int64{100, 102, 104, 106, 108}
	if !equalInts(got, want) {
		t.Errorf("exclusive range = %v, want %v", got, want)
	}
	// Seek between keys starts at next larger key.
	got = collect(tr.Seek(intKey(101), intKey(105), true))
	want = []int64{102, 104}
	if !equalInts(got, want) {
		t.Errorf("between-keys range = %v, want %v", got, want)
	}
	// Open-ended seek to the end.
	got = collect(tr.Seek(intKey(1994), nil, true))
	want = []int64{1994, 1996, 1998}
	if !equalInts(got, want) {
		t.Errorf("open range = %v, want %v", got, want)
	}
	// Range entirely past the end.
	got = collect(tr.Seek(intKey(5000), nil, true))
	if len(got) != 0 {
		t.Errorf("past-end range = %v, want empty", got)
	}
}

func decodeIntKey(t *testing.T, key []byte) int64 {
	t.Helper()
	// The key encodes a single numeric value; decode by binary search over
	// plausible values would be silly, so re-encode candidates isn't needed:
	// instead decode using the known layout (tag byte + 8-byte big-endian
	// transformed float). Reuse EncodeKey for comparison-based recovery.
	lo, hi := int64(-1), int64(1<<20)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(intKey(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if !bytes.Equal(intKey(lo), key) {
		t.Fatalf("could not decode key")
	}
	return lo
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDelete(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	for i := 0; i < 500; i++ {
		if err := tr.Insert(intKey(int64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !mustDelete(t, tr, intKey(250)) {
		t.Fatal("delete of existing key failed")
	}
	if mustDelete(t, tr, intKey(250)) {
		t.Error("second delete should report not found")
	}
	if mustDelete(t, tr, intKey(10000)) {
		t.Error("delete of missing key should report not found")
	}
	if tr.Count() != 499 {
		t.Errorf("Count after delete = %d", tr.Count())
	}
	if _, ok := mustGet(t, tr, intKey(250)); ok {
		t.Error("deleted key still visible")
	}
	if _, ok := mustGet(t, tr, intKey(251)); !ok {
		t.Error("neighbour key lost")
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	pager := storage.NewPager(0)
	tr := mustNew(t, pager)
	const n = 30000
	i := 0
	err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		k := intKey(int64(i))
		v := []byte(fmt.Sprintf("bulk%d", i))
		i++
		return k, v, true
	}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != n {
		t.Fatalf("Count = %d", tr.Count())
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d", tr.Height())
	}
	// Point lookups and ordered scan.
	for _, k := range []int64{0, 1, 12345, n - 1} {
		v, ok := mustGet(t, tr, intKey(k))
		if !ok || string(v) != fmt.Sprintf("bulk%d", k) {
			t.Errorf("Get(%d) after bulk load = %q %v", k, v, ok)
		}
	}
	it := tr.Scan()
	count := 0
	var prev []byte
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) > 0 {
			t.Fatal("bulk-loaded scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != n {
		t.Fatalf("scan after bulk load saw %d entries", count)
	}
	// Incremental inserts still work after a bulk load.
	if err := tr.Insert(intKey(-5), []byte("neg")); err != nil {
		t.Fatal(err)
	}
	v, ok := mustGet(t, tr, intKey(-5))
	if !ok || string(v) != "neg" {
		t.Error("insert after bulk load failed")
	}
}

func TestBulkLoadRejectsUnsortedInput(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	seq := []int64{1, 2, 5, 4}
	i := 0
	err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= len(seq) {
			return nil, nil, false
		}
		k := intKey(seq[i])
		i++
		return k, []byte("x"), true
	}, 1.0)
	if err == nil {
		t.Fatal("expected error for unsorted bulk load input")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	if err := tr.BulkLoad(func() ([]byte, []byte, bool) { return nil, nil, false }, 1.0); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 0 {
		t.Errorf("Count = %d", tr.Count())
	}
	if tr.Scan().Next() {
		t.Error("empty bulk-loaded tree should have no entries")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	big := make([]byte, storage.PageSize)
	if err := tr.Insert(intKey(1), big); err == nil {
		t.Error("expected error for oversized entry")
	}
}

func TestCompositeStringKeys(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	names := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, n := range names {
		key := value.EncodeKey(nil, []value.Value{value.NewString(n), value.NewInt(int64(i))})
		if err := tr.Insert(key, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.Scan()
	var got []string
	for it.Next() {
		got = append(got, string(it.Value()))
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestRangeScanIOIsBounded(t *testing.T) {
	pager := storage.NewPager(0)
	tr := mustNew(t, pager)
	const n = 50000
	i := 0
	if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		k := intKey(int64(i))
		i++
		return k, []byte("0123456789abcdef"), true
	}, 1.0); err != nil {
		t.Fatal(err)
	}
	pager.ResetCache()
	pager.ResetStats()
	it := tr.Seek(intKey(100), intKey(200), true)
	count := 0
	for it.Next() {
		count++
	}
	if count != 101 {
		t.Fatalf("range returned %d entries", count)
	}
	stats := pager.Stats()
	if stats.PageReads > int64(tr.Height()+3) {
		leaves, _ := tr.LeafRange(nil, nil, false)
		t.Errorf("narrow range read %d pages (tree has %d leaves, height %d)", stats.PageReads, len(leaves), tr.Height())
	}
}

func TestPropertyRandomOperations(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	rng := rand.New(rand.NewSource(99))
	model := map[int64]int{} // key -> multiplicity
	var keys []int64
	for op := 0; op < 5000; op++ {
		switch rng.Intn(3) {
		case 0, 1: // insert
			k := int64(rng.Intn(800))
			if err := tr.Insert(intKey(k), []byte{1}); err != nil {
				t.Fatal(err)
			}
			model[k]++
			keys = append(keys, k)
		case 2: // delete
			if len(keys) == 0 {
				continue
			}
			k := keys[rng.Intn(len(keys))]
			got := mustDelete(t, tr, intKey(k))
			want := model[k] > 0
			if got != want {
				t.Fatalf("delete(%d) = %v, model says %v", k, got, want)
			}
			if want {
				model[k]--
			}
		}
	}
	// Validate totals and per-key multiplicities.
	total := 0
	for _, m := range model {
		total += m
	}
	if int(tr.Count()) != total {
		t.Fatalf("Count = %d, model = %d", tr.Count(), total)
	}
	for k, m := range model {
		it := tr.Seek(intKey(k), intKey(k), true)
		found := 0
		for it.Next() {
			found++
		}
		if found != m {
			t.Fatalf("key %d multiplicity %d, model %d", k, found, m)
		}
	}
}

// collectScan drains a full scan into (key, value) string pairs.
func collectScan(tr *BTree) []string {
	var out []string
	it := tr.Scan()
	for it.Next() {
		out = append(out, string(it.Key())+"="+string(it.Value()))
	}
	return out
}

// TestReadsSeeEveryMutation reads the tree across every mutation path: after
// a full scan, each of Insert, Delete, and BulkLoad must be visible to the
// next scan — nothing a read left behind may stand in for a rewritten or
// recycled page.
func TestReadsSeeEveryMutation(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i*2)), []byte(fmt.Sprintf("v%d", i*2))); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("want multi-leaf tree, height=%d", tr.Height())
	}
	before := collectScan(tr)
	if len(before) != n {
		t.Fatalf("scan saw %d entries, want %d", len(before), n)
	}

	// Insert an interior key: a stale view of its leaf would hide it.
	if err := tr.Insert(intKey(4001), []byte("mid")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	after := collectScan(tr)
	if len(after) != n+1 {
		t.Fatalf("scan after insert saw %d entries, want %d", len(after), n+1)
	}
	if !sort.StringsAreSorted(after) {
		// Key encoding sorts bytewise, so the string form is ordered too.
		t.Fatal("scan after insert not in key order")
	}

	// Delete: a stale view would resurrect the entry.
	if !mustDelete(t, tr, intKey(4001)) {
		t.Fatal("delete missed")
	}
	if got := collectScan(tr); len(got) != n {
		t.Fatalf("scan after delete saw %d entries, want %d", len(got), n)
	}

	// BulkLoad rebuilds the tree wholesale onto fresh pages; nothing keyed by
	// the old page ids may leak into the new tree's scans.
	next := 0
	if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
		if next >= 100 {
			return nil, nil, false
		}
		k, v := intKey(int64(next)), []byte(fmt.Sprintf("b%d", next))
		next++
		return k, v, true
	}, 1.0); err != nil {
		t.Fatalf("bulkload: %v", err)
	}
	got := collectScan(tr)
	if len(got) != 100 {
		t.Fatalf("scan after bulkload saw %d entries, want 100", len(got))
	}
	if got[0] != string(intKey(0))+"=b0" {
		t.Fatalf("scan after bulkload starts with %q", got[0])
	}
}

// TestInterleavedIteratorsAreIndependent runs two interleaved full scans over
// the same leaves, checking neither disturbs the other: each iterator reads
// the shared pages in place and owns only its position.
func TestInterleavedIteratorsAreIndependent(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	a, b := tr.Scan(), tr.Scan()
	for i := 0; i < n; i++ {
		if !a.Next() || !b.Next() {
			t.Fatalf("iterator ended early at %d", i)
		}
		want := fmt.Sprintf("v%d", i)
		if string(a.Value()) != want || string(b.Value()) != want {
			t.Fatalf("row %d: a=%q b=%q want %q", i, a.Value(), b.Value(), want)
		}
	}
	if a.Next() || b.Next() {
		t.Fatal("iterators should be exhausted")
	}
}

// leafEntries returns copies of the keys stored in one leaf page, in order.
func leafEntries(tr *BTree, leaf storage.PageID) [][]byte {
	var keys [][]byte
	for it := tr.SeekLeaves(leaf, 1, nil, nil, false); it.Next(); {
		keys = append(keys, append([]byte(nil), it.Key()...))
	}
	return keys
}

// TestNextSpansMatchesNext pins the bulk span fetch against the per-row
// iterator — same entries, same order, same stop-key clipping — under batch
// sizes below, across and above a leaf, over a tree with duplicate keys that
// span leaves, leaves emptied by Delete, and stop keys that fall on a leaf's
// first and last record.
func TestNextSpansMatchesNext(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	const n = 4000
	val := bytes.Repeat([]byte("v"), 150) // ≈45 entries per leaf
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i/3)), append([]byte(fmt.Sprintf("%05d", i)), val...)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	leaves, err := tr.LeafRange(nil, nil, false)
	if err != nil || len(leaves) < 20 {
		t.Fatalf("tree has %d leaves (err %v), want dozens", len(leaves), err)
	}
	// Empty two adjacent leaves and one more by deleting every entry of every
	// key they hold.
	for _, li := range []int{5, 6, 12} {
		for _, k := range leafEntries(tr, leaves[li]) {
			for mustDelete(t, tr, k) {
			}
		}
	}
	if leaves, err = tr.LeafRange(nil, nil, false); err != nil {
		t.Fatal(err)
	}
	bounds := [][]byte{nil, intKey(-1), intKey(n)}
	emptied := 0
	for _, leaf := range leaves {
		keys := leafEntries(tr, leaf)
		if len(keys) == 0 {
			emptied++
			continue
		}
		bounds = append(bounds, keys[0], keys[len(keys)-1])
	}
	if emptied < 3 {
		t.Fatalf("%d leaves are empty, want at least 3", emptied)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		start, stop := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
		stopIncl := rng.Intn(2) == 0
		var wantKeys, wantVals []string
		for ref := tr.Seek(start, stop, stopIncl); ref.Next(); {
			wantKeys, wantVals = append(wantKeys, string(ref.Key())), append(wantVals, string(ref.Value()))
		}
		for _, chunk := range []int{1, 7, 1024} {
			it := tr.Seek(start, stop, stopIncl)
			keys, vals := make([][]byte, chunk), make([][]byte, chunk)
			if trial%2 == 0 {
				keys = nil // the payload-only form
			}
			var gotKeys, gotVals []string
			for m := it.NextSpans(keys, vals); m > 0; m = it.NextSpans(keys, vals) {
				if m < chunk && it.NextSpans(keys, vals[:1]) != 0 {
					t.Fatalf("[%x,%x] chunk %d: a short fill was not the end", start, stop, chunk)
				}
				for i := 0; i < m; i++ {
					if keys != nil {
						gotKeys = append(gotKeys, string(keys[i]))
					}
					gotVals = append(gotVals, string(vals[i]))
				}
			}
			if !slices.Equal(gotVals, wantVals) || (keys != nil && !slices.Equal(gotKeys, wantKeys)) {
				t.Fatalf("[%x,%x] incl=%v chunk %d: NextSpans (%d entries) and Next (%d entries) disagree",
					start, stop, stopIncl, chunk, len(gotVals), len(wantVals))
			}
		}
	}
}

// TestColdSpanDrainAllocatesO1: the first full NextSpans drain after a write
// reads several hundred leaves in place — it allocates its iterator, not a
// decoded copy of every leaf it visits.
func TestColdSpanDrainAllocatesO1(t *testing.T) {
	tr := denseTree(t, denseRecords)
	if leaves, err := tr.LeafRange(nil, nil, false); err != nil || len(leaves) < 200 {
		t.Fatalf("tree has %d leaves (err %v), want hundreds", len(leaves), err)
	}
	keys, vals := make([][]byte, 1024), make([][]byte, 1024)
	writeOnly := testing.AllocsPerRun(5, func() { rewriteLastLeaf(t, tr) })
	writeAndDrain := testing.AllocsPerRun(5, func() {
		rewriteLastLeaf(t, tr)
		if rows := drainSpans(tr, keys, vals); rows != denseRecords {
			t.Fatalf("drain saw %d rows", rows)
		}
	})
	if drain := writeAndDrain - writeOnly; drain > 4 {
		t.Errorf("a cold drain of the tree allocated %.0f objects, want a handful", drain)
	}
}

// TestInsertUnderSeesPredecessorAcrossDeletes drives InsertUnder the way a
// clustered table does (bound = key prefix + sentinel, stored key = prefix or
// prefix + next suffix after the predecessor) against a sorted-slice model,
// interleaved with deletes that remove leaves' first keys and empty whole
// leaves. The predecessor choose sees must be the model's, wherever it is
// stored, and the chosen key must land where Get and Scan find it.
func TestInsertUnderSeesPredecessorAcrossDeletes(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	rng := rand.New(rand.NewSource(7))
	sentinel := bytes.Repeat([]byte{0xFF}, 5)
	val := bytes.Repeat([]byte("v"), 200) // ~35 entries per leaf
	var model [][]byte
	for op := 0; op < 6000; op++ {
		if len(model) > 0 && rng.Intn(100) < 2 {
			// Delete a run of adjacent keys, often a leaf's worth or more.
			at := rng.Intn(len(model))
			n := min(1+rng.Intn(60), len(model)-at)
			for _, k := range model[at : at+n] {
				if !mustDelete(t, tr, k) {
					t.Fatalf("op %d: stored key %x not found by Delete", op, k)
				}
			}
			model = append(model[:at], model[at+n:]...)
			continue
		}
		prefix := intKey(int64(rng.Intn(12)))
		bound := append(append([]byte(nil), prefix...), sentinel...)
		at := sort.Search(len(model), func(i int) bool { return bytes.Compare(model[i], bound) > 0 })
		var want []byte
		if at > 0 {
			want = model[at-1]
		}
		var stored []byte
		err := tr.InsertUnder(bound, val, func(pred []byte) ([]byte, error) {
			if !bytes.Equal(pred, want) {
				t.Fatalf("op %d: choose saw predecessor %x, want %x", op, pred, want)
			}
			stored = append([]byte(nil), prefix...)
			if bytes.HasPrefix(pred, prefix) {
				n := byte(0)
				if len(pred) > len(prefix) {
					n = pred[len(prefix)]
				}
				if n == 0xFE {
					return nil, fmt.Errorf("suffix space exhausted")
				}
				stored = append(stored, n+1)
			}
			return stored, nil
		})
		if err != nil {
			continue // suffix space exhausted: nothing stored
		}
		model = append(model, nil)
		copy(model[at+1:], model[at:])
		model[at] = stored
		if _, ok := mustGet(t, tr, stored); !ok {
			t.Fatalf("op %d: Get misses the key %x just stored", op, stored)
		}
	}
	it := tr.Scan()
	i := 0
	for ; it.Next(); i++ {
		if i >= len(model) || !bytes.Equal(it.Key(), model[i]) {
			t.Fatalf("scan entry %d = %x, model disagrees", i, it.Key())
		}
	}
	if it.Err() != nil || i != len(model) || tr.Count() != int64(len(model)) {
		t.Fatalf("scan saw %d entries (err %v), Count %d, model %d", i, it.Err(), tr.Count(), len(model))
	}
	if tr.Height() < 2 {
		t.Fatalf("tree height %d: the test never left one leaf", tr.Height())
	}
}

// randomTrees grows random trees and hands each stage to check: empty; after
// inserts of random width over keys that repeat, so runs of duplicates split
// across leaves (one to three levels); after deletes that empty a band of
// leaves; after a bulk load, duplicates included. deleted says whether keys
// have been deleted since the tree was last built. It returns the tallest
// height a stage reached.
func randomTrees(t *testing.T, seeds int64, check func(tr *BTree, pager *storage.Pager, rng *rand.Rand, stage string, deleted bool)) int {
	t.Helper()
	maxHeight := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pager := storage.NewPager(0)
		tr := mustNew(t, pager)
		stage := func(name string, deleted bool) {
			check(tr, pager, rng, fmt.Sprintf("seed %d %s", seed, name), deleted)
			maxHeight = max(maxHeight, tr.Height())
		}
		stage("empty", false)
		width := 1 + rng.Intn(400)
		rows := rng.Intn(6000)
		span := int64(rows/(1+rng.Intn(20))) + 1 // up to 20 copies of a key
		for i := 0; i < rows; i++ {
			if err := tr.Insert(intKey(rng.Int63n(span)), bytes.Repeat([]byte("v"), rng.Intn(width))); err != nil {
				t.Fatal(err)
			}
		}
		stage("inserted", false)
		lo := rng.Int63n(span)
		for k := lo; k <= lo+span/3; k++ {
			for mustDelete(t, tr, intKey(k)) {
			}
		}
		stage("deleted", true)
		i, n, dups := 0, rng.Intn(20000), 1+rng.Intn(4)
		if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
			i++
			return intKey(int64(i / dups)), bytes.Repeat([]byte("b"), width/2), i <= n
		}, 0.5+rng.Float64()/2); err != nil {
			t.Fatal(err)
		}
		stage("bulk loaded", false)
	}
	return maxHeight
}

// chain is the reference LeafRange is held to: the leaves walked by their
// next links from the leftmost one, with the keys each holds, and the number
// of the tree's other (internal) pages.
type chain struct {
	ids      []storage.PageID
	keys     [][][]byte
	internal int64
}

func leafChain(t *testing.T, tr *BTree) chain {
	t.Helper()
	var c chain
	for id := tr.FirstLeaf(); id != storage.InvalidPageID; {
		nd, err := tr.node(id)
		if err != nil {
			t.Fatal(err)
		}
		c.ids, c.keys = append(c.ids, id), append(c.keys, leafEntries(tr, id))
		id = nd.next()
	}
	all, err := tr.AllPages()
	if err != nil {
		t.Fatal(err)
	}
	c.internal = int64(len(all) - len(c.ids))
	return c
}

// checkLeafRange holds a cold LeafRange(start, stop, stopIncl) to the leaf
// chain and returns it. The run is consecutive leaves in chain order, begins
// at the leaf a Seek from start loads, and covers every leaf holding a key in
// range; with no key deleted, each leaf after its first begins within the
// stop bound. The walk reads internal pages only: afterwards every leaf is
// still a miss.
func checkLeafRange(t *testing.T, tr *BTree, pager *storage.Pager, ref chain, stage string, start, stop []byte, stopIncl, deleted bool) []storage.PageID {
	t.Helper()
	pager.ResetCache()
	before := pager.Stats()
	run, err := tr.LeafRange(start, stop, stopIncl)
	if err != nil {
		t.Fatal(err)
	}
	walked := pager.Stats().Sub(before).PageReads
	before = pager.Stats()
	for _, id := range ref.ids {
		if _, err := pager.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	name := fmt.Sprintf("%s: LeafRange(%x, %x, %v)", stage, start, stop, stopIncl)
	if misses := pager.Stats().Sub(before).PageReads; walked > ref.internal || misses != int64(len(ref.ids)) {
		t.Fatalf("%s read %d pages (the tree has %d internal ones) and left %d of %d leaves cold", name, walked, ref.internal, misses, len(ref.ids))
	}
	beyond := func(k []byte) bool {
		c := bytes.Compare(k, stop)
		return stop != nil && (c > 0 || c == 0 && !stopIncl)
	}
	from := -1
	if len(run) > 0 {
		seekLeaf := tr.FirstLeaf()
		if start != nil {
			nd, err := tr.descend(start)
			if err != nil {
				t.Fatal(err)
			}
			seekLeaf = nd.pg.ID()
		}
		from = slices.Index(ref.ids, seekLeaf)
		if run[0] != seekLeaf || from+len(run) > len(ref.ids) || !slices.Equal(run, ref.ids[from:from+len(run)]) {
			t.Fatalf("%s = %v is not the run of the chain %v from the seek's leaf %d", name, run, ref.ids, seekLeaf)
		}
	}
	for j, ks := range ref.keys {
		for _, k := range ks {
			if (start == nil || bytes.Compare(k, start) >= 0) && !beyond(k) && (j < from || j >= from+len(run)) {
				t.Fatalf("%s = leaves %d..%d of %d; leaf %d holds the in-range key %x", name, from, from+len(run)-1, len(ref.ids), j, k)
			}
		}
		if !deleted && j > from && j < from+len(run) && len(ks) > 0 && beyond(ks[0]) {
			t.Fatalf("%s runs on to leaf %d, which begins past the stop bound", name, j)
		}
	}
	return run
}

// TestLeafCountMatchesLeafChain pins LeafCount, and the unbounded LeafRange it
// counts, to the leaf chain itself on random trees (randomTrees). A cold count
// reads exactly the tree's internal pages.
func TestLeafCountMatchesLeafChain(t *testing.T) {
	maxHeight := randomTrees(t, 40, func(tr *BTree, pager *storage.Pager, _ *rand.Rand, stage string, deleted bool) {
		ref := leafChain(t, tr)
		checkLeafRange(t, tr, pager, ref, stage, nil, nil, false, deleted)
		pager.ResetCache()
		before := pager.Stats()
		n, err := tr.LeafCount()
		if err != nil {
			t.Fatal(err)
		}
		if reads := pager.Stats().Sub(before).PageReads; reads != ref.internal {
			t.Fatalf("%s: LeafCount read %d pages, the tree has %d internal ones", stage, reads, ref.internal)
		}
		if n != len(ref.ids) {
			t.Fatalf("%s: LeafCount = %d, leaf chain has %d (height %d)", stage, n, len(ref.ids), tr.Height())
		}
	})
	if maxHeight < 3 {
		t.Fatalf("tallest tree had %d levels; the property needs internal levels below the root", maxHeight)
	}
}

// TestFirstLeafMatchesDescent: the leftmost leaf a tree records — where a
// scan with an open start begins, with no descent — is the leaf a descent
// from the root reaches, through random insert and delete histories (leaf
// and root splits, keys below every stored one, a first leaf that deletes
// empty and inserts refill) and bulk loads. A scan from it returns exactly
// what a scan from the descent's leaf returns, under any stop bound, and a
// cold one reads the leaves and nothing else.
func TestFirstLeafMatchesDescent(t *testing.T) {
	maxHeight := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pager := storage.NewPager(0)
		tr := mustNew(t, pager)
		entries := func(it *Iterator) [][2]string {
			var out [][2]string
			for it.Next() {
				out = append(out, [2]string{string(it.Key()), string(it.Value())})
			}
			if it.Err() != nil {
				t.Fatal(it.Err())
			}
			return out
		}
		check := func(stage string) {
			t.Helper()
			nd, err := tr.descend(nil)
			if err != nil {
				t.Fatal(err)
			}
			if id := nd.pg.ID(); id != tr.FirstLeaf() {
				t.Fatalf("seed %d %s: stored leftmost leaf %d, a descent reaches %d (height %d)", seed, stage, tr.FirstLeaf(), id, tr.Height())
			}
			all := entries(&Iterator{tree: tr, next: nd.pg.ID(), leavesLeft: -1})
			stops := [][]byte{nil, intKey(rng.Int63n(4000) - 2000)}
			if len(all) > 0 {
				stops = append(stops, []byte(all[rng.Intn(len(all))][0]))
			}
			for _, stop := range stops {
				for _, incl := range []bool{false, true} {
					want := entries(&Iterator{tree: tr, next: nd.pg.ID(), leavesLeft: -1, stopKey: stop, stopIncl: incl})
					if got := entries(tr.Seek(nil, stop, incl)); !slices.Equal(got, want) {
						t.Fatalf("seed %d %s: scan to %x (incl %v) from the stored leaf has %d entries, from the descent %d", seed, stage, stop, incl, len(got), len(want))
					}
				}
			}
			leaves, err := tr.LeafRange(nil, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			pager.ResetCache()
			before := pager.Stats()
			if n := len(entries(tr.Scan())); n != len(all) || n != int(tr.Count()) {
				t.Fatalf("seed %d %s: scan returned %d entries, count %d", seed, stage, n, tr.Count())
			}
			if reads := pager.Stats().Sub(before).PageReads; reads != int64(len(leaves)) {
				t.Fatalf("seed %d %s: a cold scan read %d pages for %d leaves", seed, stage, reads, len(leaves))
			}
			maxHeight = max(maxHeight, tr.Height())
		}
		check("empty")
		width := 1 + rng.Intn(300)
		rows := rng.Intn(4000)
		for i := 0; i < rows; i++ {
			key := rng.Int63n(int64(rows) + 1)
			if i%3 == 0 {
				key = -int64(i) // below every stored key: into the first leaf
			}
			if err := tr.Insert(intKey(key), bytes.Repeat([]byte("v"), rng.Intn(width))); err != nil {
				t.Fatal(err)
			}
		}
		check("inserted")
		// Empty the leftmost leaf key by key and refill it, up to three times.
		for emptied := 0; emptied < 1+rng.Intn(3) && tr.Count() > 0; emptied++ {
			for {
				nd, err := tr.node(tr.FirstLeaf())
				if err != nil {
					t.Fatal(err)
				}
				if nd.n == 0 {
					break
				}
				if !mustDelete(t, tr, slices.Clone(nd.key(0))) {
					t.Fatalf("seed %d: the first leaf's first key did not delete", seed)
				}
			}
			check("first leaf emptied")
			for i := 0; i < rng.Intn(50); i++ {
				if err := tr.Insert(intKey(-10000-rng.Int63n(1000)), []byte("refill")); err != nil {
					t.Fatal(err)
				}
			}
			check("first leaf refilled")
		}
		i, n := 0, rng.Intn(20000)
		if err := tr.BulkLoad(func() ([]byte, []byte, bool) {
			i++
			return intKey(int64(i)), bytes.Repeat([]byte("b"), width/2), i <= n
		}, 0.5+rng.Float64()/2); err != nil {
			t.Fatal(err)
		}
		check("bulk loaded")
	}
	if maxHeight < 3 {
		t.Fatalf("tallest tree had %d levels; the property needs root splits above a split root", maxHeight)
	}
}
