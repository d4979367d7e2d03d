// Package btree implements a page-backed B+-tree used for clustered and
// secondary indexes. Keys are order-preserving byte strings (the catalog's
// stored-key encoding); payloads are opaque byte strings. Leaves are linked for
// range scans, and all node accesses go through the storage pager so the
// benchmark harness can account for index I/O.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"oldelephant/internal/storage"
)

// BTree is a B+-tree rooted at a page. Duplicate keys are allowed; entries
// with equal keys are returned in insertion order.
//
// Reads (Scan, Seek, LeafPages, morsel iterators) are safe to run from
// concurrent goroutines as long as no mutation (Insert, Delete, BulkLoad)
// runs at the same time — the serving layer's reader/writer isolation; page
// accesses themselves are serialized by the pager.
type BTree struct {
	pager    *storage.Pager
	root     storage.PageID
	height   int
	count    int64
	overhead int // per-leaf-entry overhead bytes, emulating the row header
	// leafCache memoizes LeafPages so morsel partitioning does not re-walk
	// the leaf chain on every query; any structural mutation invalidates it.
	// It is an atomic pointer because concurrent read-only queries race to
	// fill it (two sessions planning parallel scans of one table).
	leafCache atomic.Pointer[[]storage.PageID]
	// parsed caches fully-parsed leaf nodes by page id, so that repeated
	// scans, seeks, and morsel workers visiting a leaf pay readNodeInto once
	// per mutation epoch instead of once per visit. Cached entries alias
	// stable page memory (like every entry slice) and are shared read-only
	// between concurrent iterators; the RWMutex covers only the map, and the
	// same mutation paths that clear leafCache clear it wholesale. Page reads
	// still go through the pager on every visit, so a cache hit changes no
	// I/O accounting — only the parse is amortized.
	parsedMu sync.RWMutex
	parsed   map[storage.PageID]*parsedLeaf
}

// parsedLeaf is one cached leaf parse: its entries and next-leaf pointer.
type parsedLeaf struct {
	entries []entry
	next    uint64
}

// maxParsedLeaves bounds the parse cache. At a few KB of entry headers per
// leaf this caps the cache near the size of the pages it mirrors; trees with
// more leaves serve the overflow by parsing into the iterator's scratch
// buffer, exactly as every leaf was handled before the cache existed.
const maxParsedLeaves = 8192

// entry is one (key, payload) pair inside a node. In internal nodes the
// payload is the child's page id (childPayload).
type entry struct {
	key []byte
	val []byte
}

// New creates an empty tree. overhead is the per-leaf-entry byte overhead
// (pass a negative value for storage.DefaultTupleOverhead, 0 for none).
func New(pager *storage.Pager, overhead int) *BTree {
	if overhead < 0 {
		overhead = storage.DefaultTupleOverhead
	}
	t := &BTree{pager: pager, overhead: overhead, parsed: make(map[storage.PageID]*parsedLeaf)}
	root := pager.Allocate()
	writeNode(root, true, nil, 0)
	t.root = root.ID()
	t.height = 1
	return t
}

// Open reattaches a tree to its pages (recovery path: root, height and count
// come from the persisted catalog meta; the pages themselves were restored by
// the data file load + WAL replay).
func Open(pager *storage.Pager, root storage.PageID, height int, count int64, overhead int) *BTree {
	if overhead < 0 {
		overhead = storage.DefaultTupleOverhead
	}
	return &BTree{
		pager: pager, root: root, height: height, count: count,
		overhead: overhead, parsed: make(map[storage.PageID]*parsedLeaf),
	}
}

// Count returns the number of entries in the tree.
func (t *BTree) Count() int64 { return t.count }

// Height returns the number of levels (1 = a single leaf).
func (t *BTree) Height() int { return t.height }

// RootPage returns the page id of the root node.
func (t *BTree) RootPage() storage.PageID { return t.root }

// NumLeafPages walks the leaf chain and returns its length. Intended for
// statistics and tests; it performs I/O. The walk reads only each leaf's Aux
// word (the next-leaf pointer) — no record parsing.
func (t *BTree) NumLeafPages() int {
	id, err := t.firstLeaf()
	n := 0
	for err == nil && id != storage.InvalidPageID {
		n++
		var pg *storage.Page
		if pg, err = t.pager.Get(id); err == nil {
			id = storage.PageID(pg.Aux())
		}
	}
	return n
}

// AllPages returns every page id the tree occupies (internal nodes and
// leaves), so DROP TABLE can hand them to the pager's freelist.
func (t *BTree) AllPages() ([]storage.PageID, error) {
	var out []storage.PageID
	var walk func(id storage.PageID) error
	walk = func(id storage.PageID) error {
		out = append(out, id)
		pg, err := t.pager.Get(id)
		if err != nil {
			return err
		}
		n := pg.NumSlots()
		if n == 0 {
			return nil
		}
		first := pg.Record(0)
		if first == nil || first[0] == recLeaf {
			return nil
		}
		if err := walk(storage.PageID(pg.Aux())); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			rec := pg.Record(i)
			if rec == nil {
				continue
			}
			_, val := recordKeyVal(rec)
			if err := walk(childID(val)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return out, nil
}

// Node layout. The page Aux word stores, for leaves, the next-leaf page id;
// for internal nodes, the id of the leftmost child (covering keys below the
// first separator). The first byte of every record is a leaf marker so the
// node kind is self-describing; remaining record bytes are
// uvarint(keyLen) || key || payload.
const (
	recLeaf     byte = 1
	recInternal byte = 2
)

func writeNode(pg *storage.Page, isLeaf bool, entries []entry, extra uint64) bool {
	marker := recInternal
	if isLeaf {
		marker = recLeaf
	}
	// Serialize every entry before touching the page: the entries frequently
	// alias the very page being rewritten (they come from readNode).
	recs := make([][]byte, len(entries))
	for i, e := range entries {
		rec := make([]byte, 0, 1+10+len(e.key)+len(e.val))
		rec = append(rec, marker)
		rec = binary.AppendUvarint(rec, uint64(len(e.key)))
		rec = append(rec, e.key...)
		rec = append(rec, e.val...)
		recs[i] = rec
	}
	data := pg.Data()
	for i := range data {
		data[i] = 0
	}
	reinit(pg)
	pg.SetAux(extra)
	for _, rec := range recs {
		if _, ok := pg.InsertRecord(rec, 0); !ok {
			return false
		}
	}
	return true
}

// reinit restores the empty slotted-page header on a zeroed page.
func reinit(pg *storage.Page) {
	data := pg.Data()
	binary.LittleEndian.PutUint16(data[0:2], 0)  // slots
	binary.LittleEndian.PutUint16(data[2:4], 14) // free start
	binary.LittleEndian.PutUint16(data[4:6], 0)  // free end = PageSize sentinel
}

func readNode(pg *storage.Page) (isLeaf bool, entries []entry, extra uint64) {
	return readNodeInto(pg, nil)
}

// readNodeInto is readNode appending into buf (reusing its capacity) — the
// iterator's per-leaf path, where a fresh entries slice per leaf would be the
// only allocation of an otherwise zero-copy scan. The key/val slices alias
// page memory, which the pager keeps resident for the process lifetime, so
// entries (and spans handed out from them) stay valid indefinitely.
func readNodeInto(pg *storage.Page, buf []entry) (isLeaf bool, entries []entry, extra uint64) {
	extra = pg.Aux()
	n := pg.NumSlots()
	entries = buf[:0]
	if cap(entries) < n {
		// Sized to the node, not grown by appending: a cached leaf parse lives
		// as long as the tree goes unmodified, and growth would round its 48-byte
		// entries up to the next allocation class — twice the need for a leaf
		// just past one (86 records where 85 fill 4 KiB).
		entries = make([]entry, 0, n)
	}
	isLeaf = true
	for i := 0; i < n; i++ {
		rec := pg.Record(i)
		if rec == nil {
			continue
		}
		isLeaf = rec[0] == recLeaf
		klen, sz := binary.Uvarint(rec[1:])
		keyStart := 1 + sz
		key := rec[keyStart : keyStart+int(klen)]
		val := rec[keyStart+int(klen):]
		entries = append(entries, entry{key: key, val: val})
	}
	return isLeaf, entries, extra
}

// invalidateCaches drops the memoized leaf chain and every cached leaf parse.
// Called by the same structural mutations that rewrite pages (Insert, Delete,
// BulkLoad) before they touch any node, so readers that start after the
// mutation never observe stale parses.
func (t *BTree) invalidateCaches() {
	t.leafCache.Store(nil)
	t.parsedMu.Lock()
	clear(t.parsed)
	t.parsedMu.Unlock()
}

// loadLeaf returns the parsed form of a leaf page, serving repeated visits
// from the parse cache. The page is fetched through the pager first in every
// case, so the I/O simulation charges a cache hit identically to a parse. On
// a cache miss the leaf is parsed into a fresh slice and cached (shared=true)
// unless the cache is full, in which case it is parsed into scratch
// (shared=false) and the caller keeps ownership. Shared results are read-only
// and must never be written through.
func (t *BTree) loadLeaf(id storage.PageID, scratch []entry) (entries []entry, next uint64, shared bool, err error) {
	pg, err := t.pager.Get(id)
	if err != nil {
		return nil, 0, false, err
	}
	t.parsedMu.RLock()
	pl, ok := t.parsed[id]
	t.parsedMu.RUnlock()
	if ok {
		return pl.entries, pl.next, true, nil
	}
	full := false
	t.parsedMu.RLock()
	full = len(t.parsed) >= maxParsedLeaves
	t.parsedMu.RUnlock()
	if full {
		_, entries, next = readNodeInto(pg, scratch)
		return entries, next, false, nil
	}
	_, owned, extra := readNode(pg)
	pl = &parsedLeaf{entries: owned, next: extra}
	t.parsedMu.Lock()
	if prev, ok := t.parsed[id]; ok {
		// A concurrent reader cached the identical parse first; share it so
		// every iterator observes one stable slice.
		pl = prev
	} else {
		t.parsed[id] = pl
	}
	t.parsedMu.Unlock()
	return pl.entries, pl.next, true, nil
}

// entrySize returns the on-page footprint of an entry, including the leaf
// overhead when applicable.
func (t *BTree) entrySize(e entry, isLeaf bool) int {
	size := 1 + uvarintLen(uint64(len(e.key))) + len(e.key) + len(e.val) + 4 // +slot
	if isLeaf {
		size += t.overhead
	}
	return size
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// usableBytes is the payload capacity of a node page.
const usableBytes = storage.PageSize - 64

// nodeFits reports whether the entries fit in one page.
func (t *BTree) nodeFits(entries []entry, isLeaf bool) bool {
	total := 0
	for _, e := range entries {
		total += t.entrySize(e, isLeaf)
	}
	return total <= usableBytes
}

// Insert adds a (key, payload) entry. Keys need not be unique.
func (t *BTree) Insert(key, val []byte) error {
	return t.InsertUnder(key, val, nil)
}

// InsertUnder adds one entry at the position a key equal to bound would take
// — directly after the greatest stored key <= bound — and lets the caller pick
// the key there: choose sees that predecessor (nil when the tree holds no key
// <= bound; the slice aliases page memory and must not be retained) and
// returns the key to store, which must lie in [predecessor, bound]. It is how
// a clustered table decides, on the one descent the insert makes anyway,
// whether the row's key is already present and needs a uniquifier. A nil
// choose stores bound itself. A leaf's separator is a copy of its first key,
// so the predecessor sits in the target leaf unless a Delete has since removed
// that key; only then does the insert pay a second search (maxKeyLE) and a
// fresh descent for the chosen key, which may belong in an earlier leaf.
func (t *BTree) InsertUnder(bound, val []byte, choose func(pred []byte) ([]byte, error)) error {
	if len(bound)+len(val) > usableBytes/4 {
		return fmt.Errorf("btree: entry of %d bytes is too large", len(bound)+len(val))
	}
	t.invalidateCaches()
	promoted, newChild, err := t.insertInto(t.root, bound, val, choose, true)
	if err == errPredElsewhere {
		var pred, key []byte
		if pred, _, err = t.maxKeyLE(t.root, bound); err == nil {
			if key, err = choose(pred); err == nil {
				promoted, newChild, err = t.insertInto(t.root, key, val, nil, true)
			}
		}
	}
	if err != nil {
		return err
	}
	if newChild != storage.InvalidPageID {
		// Root split: create a new root with the old root as leftmost child.
		newRoot := t.pager.Allocate()
		ents := []entry{{key: promoted, val: childPayload(newChild)}}
		writeNode(newRoot, false, ents, uint64(t.root))
		t.root = newRoot.ID()
		t.height++
	}
	t.count++
	return nil
}

// childPayload is an internal entry's payload: the child's page id as a
// uvarint, two or three bytes for any tree that fits in memory, so an inner
// node's fan-out is set by its keys rather than by an 8-byte pointer.
func childPayload(id storage.PageID) []byte {
	return binary.AppendUvarint(nil, uint64(id))
}

func childID(val []byte) storage.PageID {
	id, _ := binary.Uvarint(val)
	return storage.PageID(id)
}

// errPredElsewhere is insertInto's report that the target leaf holds no key
// <= bound although leaves to its left exist.
var errPredElsewhere = errors.New("btree: predecessor is not in the target leaf")

// maxKeyLE returns the greatest key <= bound stored under the node id,
// searching right to left past leaves that deletes have emptied.
func (t *BTree) maxKeyLE(id storage.PageID, bound []byte) ([]byte, bool, error) {
	pg, err := t.pager.Get(id)
	if err != nil {
		return nil, false, err
	}
	isLeaf, entries, extra := readNode(pg)
	pos := upperBound(entries, bound)
	if isLeaf {
		if pos == 0 {
			return nil, false, nil
		}
		return entries[pos-1].key, true, nil
	}
	for i := pos - 1; i >= -1; i-- {
		child := storage.PageID(extra)
		if i >= 0 {
			child = childID(entries[i].val)
		}
		if key, ok, err := t.maxKeyLE(child, bound); ok || err != nil {
			return key, ok, err
		}
	}
	return nil, false, nil
}

// insertInto inserts into the subtree rooted at id (see InsertUnder for
// choose); leftmost says no leaf lies to the subtree's left. If the node
// splits it returns the separator key and the new right sibling's page id.
func (t *BTree) insertInto(id storage.PageID, key, val []byte, choose func(pred []byte) ([]byte, error), leftmost bool) ([]byte, storage.PageID, error) {
	pg, err := t.pager.Get(id)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	isLeaf, entries, extra := readNode(pg)
	if isLeaf {
		pos := upperBound(entries, key)
		if choose != nil {
			var pred []byte
			if pos > 0 {
				pred = entries[pos-1].key
			} else if !leftmost {
				return nil, storage.InvalidPageID, errPredElsewhere
			}
			if key, err = choose(pred); err != nil {
				return nil, storage.InvalidPageID, err
			}
		}
		entries = append(entries, entry{})
		copy(entries[pos+1:], entries[pos:])
		entries[pos] = entry{key: append([]byte(nil), key...), val: append([]byte(nil), val...)}
		if t.nodeFits(entries, true) {
			t.pager.BeforeWrite(id)
			writeNode(pg, true, entries, extra)
			return nil, storage.InvalidPageID, nil
		}
		// Split the leaf. The separator must be copied before the left page is
		// rewritten because the entries alias the page's memory.
		mid := len(entries) / 2
		sep := append([]byte(nil), entries[mid].key...)
		right := t.pager.Allocate()
		writeNode(right, true, entries[mid:], extra) // right inherits next pointer
		t.pager.BeforeWrite(id)
		writeNode(pg, true, entries[:mid], uint64(right.ID()))
		return sep, right.ID(), nil
	}
	// Internal node: find child covering key.
	childIdx := -1 // -1 means leftmost child (extra)
	for i := range entries {
		if bytes.Compare(entries[i].key, key) <= 0 {
			childIdx = i
		} else {
			break
		}
	}
	var child storage.PageID
	if childIdx == -1 {
		child = storage.PageID(extra)
	} else {
		child = childID(entries[childIdx].val)
	}
	promoted, newChild, err := t.insertInto(child, key, val, choose, leftmost && childIdx == -1)
	if err != nil || newChild == storage.InvalidPageID {
		return nil, storage.InvalidPageID, err
	}
	// Insert the separator after childIdx.
	ins := entry{key: promoted, val: childPayload(newChild)}
	pos := childIdx + 1
	entries = append(entries, entry{})
	copy(entries[pos+1:], entries[pos:])
	entries[pos] = ins
	if t.nodeFits(entries, false) {
		t.pager.BeforeWrite(id)
		writeNode(pg, false, entries, extra)
		return nil, storage.InvalidPageID, nil
	}
	// Split the internal node: middle key moves up.
	mid := len(entries) / 2
	sep := append([]byte(nil), entries[mid].key...)
	right := t.pager.Allocate()
	writeNode(right, false, entries[mid+1:], uint64(childID(entries[mid].val)))
	t.pager.BeforeWrite(id)
	writeNode(pg, false, entries[:mid], extra)
	return sep, right.ID(), nil
}

// upperBound returns the index of the first entry whose key is strictly
// greater than key (so equal keys keep insertion order).
func upperBound(entries []entry, key []byte) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(entries[mid].key, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the index of the first entry whose key is >= key.
func lowerBound(entries []entry, key []byte) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(entries[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Delete removes the first entry with exactly the given key and payload
// prefix (payload may be nil to match any). It returns true if an entry was
// removed. Nodes are not rebalanced: the workload is read-mostly and
// underfull nodes only waste space, never correctness.
func (t *BTree) Delete(key []byte) (bool, error) {
	t.invalidateCaches()
	id, err := t.leafFor(key)
	if err != nil {
		return false, err
	}
	for id != storage.InvalidPageID {
		pg, err := t.pager.Get(id)
		if err != nil {
			return false, err
		}
		_, entries, extra := readNode(pg)
		for i := range entries {
			cmp := bytes.Compare(entries[i].key, key)
			if cmp > 0 {
				return false, nil
			}
			if cmp == 0 {
				entries = append(entries[:i], entries[i+1:]...)
				t.pager.BeforeWrite(id)
				writeNode(pg, true, entries, extra)
				t.count--
				return true, nil
			}
		}
		id = storage.PageID(extra)
	}
	return false, nil
}

// recordKeyVal splits one node record into its key and payload without
// materializing the whole node — the descent fast path.
func recordKeyVal(rec []byte) (key, val []byte) {
	klen, sz := binary.Uvarint(rec[1:])
	keyStart := 1 + sz
	return rec[keyStart : keyStart+int(klen)], rec[keyStart+int(klen):]
}

// leafFor descends to the first leaf that may contain key. Routing uses a
// strict comparison so that, with duplicate keys split across leaves, the
// leftmost occurrence is always reachable (iterators follow leaf links).
// Each internal node is binary-searched through its slot directory directly
// — O(log fanout) record parses per level instead of materializing every
// entry, which is what keeps a point seek's descent cheap enough for the
// serving layer's prepared-statement hot path.
func (t *BTree) leafFor(key []byte) (storage.PageID, error) {
	id := t.root
	for {
		pg, err := t.pager.Get(id)
		if err != nil {
			return storage.InvalidPageID, err
		}
		n := pg.NumSlots()
		if n == 0 {
			return id, nil // only an empty root leaf has no records
		}
		first := pg.Record(0)
		if first == nil || first[0] == recLeaf {
			return id, nil
		}
		// Find the number of separators strictly below key; the child left
		// of that position covers the key.
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			k, _ := recordKeyVal(pg.Record(mid))
			if bytes.Compare(k, key) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			id = storage.PageID(pg.Aux()) // leftmost child
		} else {
			_, val := recordKeyVal(pg.Record(lo - 1))
			id = childID(val)
		}
	}
}

// firstLeaf returns the leftmost leaf page. The descent inspects only each
// node's first record marker and Aux word (the leftmost child) — no parsing.
func (t *BTree) firstLeaf() (storage.PageID, error) {
	id := t.root
	for {
		pg, err := t.pager.Get(id)
		if err != nil {
			return storage.InvalidPageID, err
		}
		if pg.NumSlots() == 0 {
			return id, nil // only an empty root leaf has no records
		}
		first := pg.Record(0)
		if first == nil || first[0] == recLeaf {
			return id, nil
		}
		id = storage.PageID(pg.Aux())
	}
}

// Iterator walks leaf entries in key order.
type Iterator struct {
	tree     *BTree
	leaf     storage.PageID
	entries  []entry
	pos      int
	stopKey  []byte // exclusive upper bound when stopExcl, inclusive otherwise
	stopIncl bool
	done     bool
	// leavesLeft bounds how many further leaf pages the iterator may load
	// (-1 = unbounded). Leaf-range iterators (SeekLeaves) use it to stop at
	// their partition boundary instead of a key.
	leavesLeft int
	// scratch is the iterator-owned parse buffer for leaves served outside
	// the tree's parse cache. It is deliberately separate from entries: when
	// a leaf comes from the cache, entries aliases the shared cached slice,
	// and parsing the next (uncached) leaf into it would overwrite memory
	// other iterators are reading.
	scratch []entry
	err     error
}

// Err returns the first page-access error the iterator hit. Next reports
// exhaustion on error, so callers that see false must check Err to
// distinguish end-of-range from a failed page read.
func (it *Iterator) Err() error { return it.err }

// Key returns the current entry's key. Valid only after Next reported true.
// The slice aliases page memory, which stays resident and unmodified for as
// long as the tree is not mutated — scans may hold key spans across Next
// calls without copying.
func (it *Iterator) Key() []byte { return it.entries[it.pos-1].key }

// Value returns the current entry's payload. Valid only after Next reported
// true. Like Key, the slice aliases stable page memory; the projected scan
// fill hands sub-spans of it straight to the typed tuple decoders.
func (it *Iterator) Value() []byte { return it.entries[it.pos-1].val }

// Next advances the iterator and reports whether an entry is available.
func (it *Iterator) Next() bool {
	if !it.advanceLeaf() {
		return false
	}
	if it.stopKey != nil {
		cmp := bytes.Compare(it.entries[it.pos].key, it.stopKey)
		if cmp > 0 || (cmp == 0 && !it.stopIncl) {
			it.done = true
			return false
		}
	}
	it.pos++
	return true
}

// NextSpans bulk-advances the iterator, filling keys (when non-nil) and vals
// with up to len(vals) entries' key/value spans, and returns how many it
// filled — fewer only at exhaustion. It is Next/Key/Value with the per-row
// call overhead and bound checks hoisted out of the loop: batch fills drain a
// whole cached leaf parse with one call per batch. The spans alias page
// memory exactly as Key/Value do.
func (it *Iterator) NextSpans(keys, vals [][]byte) int {
	n := 0
	for n < len(vals) {
		if !it.advanceLeaf() {
			break
		}
		entries := it.entries[it.pos:]
		if want := len(vals) - n; len(entries) > want {
			entries = entries[:want]
		}
		if it.stopKey != nil {
			// Clip the run at the stop key; entries within a leaf are sorted,
			// so everything before the first out-of-bound entry is in range.
			for i := range entries {
				cmp := bytes.Compare(entries[i].key, it.stopKey)
				if cmp > 0 || (cmp == 0 && !it.stopIncl) {
					entries = entries[:i]
					it.done = true
					break
				}
			}
		}
		for i := range entries {
			vals[n+i] = entries[i].val
		}
		if keys != nil {
			for i := range entries {
				keys[n+i] = entries[i].key
			}
		}
		it.pos += len(entries)
		n += len(entries)
		if it.done {
			break
		}
	}
	return n
}

// advanceLeaf makes sure an unconsumed entry is under the cursor, loading
// further leaves (skipping empty ones) as needed; it returns false at the end
// of the range or on a page error. Cached leaves hand back a shared read-only
// parse; misses reuse the iterator's scratch buffer (Key()/Value() spans alias
// page memory, not the entry slice, so recycling scratch is invisible to
// callers).
func (it *Iterator) advanceLeaf() bool {
	for {
		if it.done {
			return false
		}
		if it.pos < len(it.entries) {
			return true
		}
		if it.leaf == storage.InvalidPageID || it.leavesLeft == 0 {
			it.done = true
			return false
		}
		if it.leavesLeft > 0 {
			it.leavesLeft--
		}
		entries, extra, shared, err := it.tree.loadLeaf(it.leaf, it.scratch)
		if err != nil {
			it.err = err
			it.done = true
			return false
		}
		if !shared {
			it.scratch = entries
		}
		it.entries = entries
		it.pos = 0
		it.leaf = storage.PageID(extra)
	}
}

// Scan returns an iterator over the whole tree in key order: a seek with
// both bounds open.
func (t *BTree) Scan() *Iterator { return t.Seek(nil, nil, false) }

// LeafPages returns the ids of every leaf page in chain (key) order. It is
// how parallel scans partition a tree into morsels: each morsel is a run of
// consecutive leaves handed to SeekLeaves. The chain walk is memoized until
// the next structural mutation, so repeated queries do not re-pay it.
// Callers must treat the result as read-only.
func (t *BTree) LeafPages() ([]storage.PageID, error) {
	if cached := t.leafCache.Load(); cached != nil {
		return *cached, nil
	}
	var out []storage.PageID
	id, err := t.firstLeaf()
	if err != nil {
		return nil, err
	}
	for id != storage.InvalidPageID {
		out = append(out, id)
		pg, err := t.pager.Get(id)
		if err != nil {
			return nil, err
		}
		id = storage.PageID(pg.Aux())
	}
	t.leafCache.Store(&out)
	return out, nil
}

// LeafRange returns the ids of the consecutive leaf pages that can contain
// keys in [start, stop] — the leaf that Seek(start, ...) would begin on
// through the last leaf whose first key does not pass the stop bound. It is
// how parallel range scans partition a seek into morsels: each morsel is a
// run of consecutive leaves handed to SeekLeaves. nil bounds are open (nil
// start begins at the first leaf; nil stop ends at the last). The walk reads
// only the leaves of the range, plus one root-to-leaf descent; the fully open
// range is the whole chain, which LeafPages memoizes. Callers must treat the
// result as read-only.
func (t *BTree) LeafRange(start, stop []byte, stopIncl bool) ([]storage.PageID, error) {
	if start == nil && stop == nil {
		return t.LeafPages()
	}
	var out []storage.PageID
	var id storage.PageID
	var err error
	if start != nil {
		id, err = t.leafFor(start)
	} else {
		id, err = t.firstLeaf()
	}
	if err != nil {
		return nil, err
	}
	for id != storage.InvalidPageID {
		pg, err := t.pager.Get(id)
		if err != nil {
			return nil, err
		}
		// Only the first record's key decides the stop bound; the leaf is not
		// parsed. A missing first record skips the check (the extra leaf is
		// harmless: iterators enforce the stop key themselves).
		if stop != nil && pg.NumSlots() > 0 {
			if rec := pg.Record(0); rec != nil {
				k, _ := recordKeyVal(rec)
				cmp := bytes.Compare(k, stop)
				if cmp > 0 || (cmp == 0 && !stopIncl) {
					break
				}
			}
		}
		out = append(out, id)
		id = storage.PageID(pg.Aux())
	}
	return out, nil
}

// SeekLeaves returns an iterator over the entries of count consecutive leaf
// pages starting at start (a page id from LeafRange; count < 0 follows the
// chain to its end), bounded above by the stop key exactly like Seek. A
// non-nil startKey positions the iterator at the first entry >= startKey
// within the first leaf — the form used by the first split of a partitioned
// seek; later splits pass nil and start at their leaf's first entry.
// Concatenating the iterators of a partition of LeafRange(start, stop,
// stopIncl) — startKey on the first, nil on the rest — reproduces
// Seek(start, stop, stopIncl) exactly.
func (t *BTree) SeekLeaves(start storage.PageID, count int, startKey, stop []byte, stopIncl bool) *Iterator {
	it := &Iterator{tree: t, stopKey: stop, stopIncl: stopIncl, leaf: start, leavesLeft: count}
	if startKey != nil && it.advanceLeaf() {
		it.pos = lowerBound(it.entries, startKey)
	}
	return it
}

// Seek returns an iterator positioned at the first entry with key >= start
// (nil start begins at the first leaf, which is then loaded lazily). If stop
// is non-nil the iteration ends at stop (inclusive when stopIncl).
func (t *BTree) Seek(start, stop []byte, stopIncl bool) *Iterator {
	var leaf storage.PageID
	var err error
	if start == nil {
		leaf, err = t.firstLeaf()
	} else {
		leaf, err = t.leafFor(start)
	}
	if err != nil {
		return &Iterator{tree: t, done: true, err: err}
	}
	return t.SeekLeaves(leaf, -1, start, stop, stopIncl)
}

// Get returns the payload of the first entry matching key exactly.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	it := t.Seek(key, key, true)
	if it.Next() {
		return it.Value(), true, nil
	}
	return nil, false, it.Err()
}

// BulkLoad builds the tree from entries that are already sorted by key,
// replacing the current contents. It packs leaves to fillFactor (0 < f <= 1)
// and builds the internal levels bottom-up; this is the fast path used by
// table loading and c-table construction. It returns an error if the input
// is not sorted.
func (t *BTree) BulkLoad(next func() (key, val []byte, ok bool), fillFactor float64) error {
	t.invalidateCaches()
	if fillFactor <= 0 || fillFactor > 1 {
		fillFactor = 1.0
	}
	target := int(float64(usableBytes) * fillFactor)
	var (
		leafIDs   []storage.PageID
		firstKeys [][]byte
		cur       []entry
		curSize   int
		prevKey   []byte
		n         int64
	)
	flushLeaf := func() error {
		pg := t.pager.Allocate()
		writeNode(pg, true, cur, 0)
		if len(leafIDs) > 0 {
			prevID := leafIDs[len(leafIDs)-1]
			prev, err := t.pager.Get(prevID)
			if err != nil {
				return err
			}
			t.pager.BeforeWrite(prevID)
			prev.SetAux(uint64(pg.ID()))
		}
		leafIDs = append(leafIDs, pg.ID())
		if len(cur) > 0 {
			firstKeys = append(firstKeys, append([]byte(nil), cur[0].key...))
		} else {
			firstKeys = append(firstKeys, nil)
		}
		cur = nil
		curSize = 0
		return nil
	}
	for {
		key, val, ok := next()
		if !ok {
			break
		}
		if prevKey != nil && bytes.Compare(key, prevKey) < 0 {
			return fmt.Errorf("btree: bulk load input not sorted")
		}
		prevKey = append(prevKey[:0], key...)
		e := entry{key: append([]byte(nil), key...), val: append([]byte(nil), val...)}
		sz := t.entrySize(e, true)
		if curSize+sz > target && len(cur) > 0 {
			if err := flushLeaf(); err != nil {
				return err
			}
		}
		cur = append(cur, e)
		curSize += sz
		n++
	}
	if err := flushLeaf(); err != nil {
		return err
	}
	t.count = n
	// Build internal levels.
	level := leafIDs
	keys := firstKeys
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
			size := 0
			for i < len(level) {
				e := entry{key: keys[i], val: childPayload(level[i])}
				sz := t.entrySize(e, false)
				if size+sz > target && len(ents) > 0 {
					break
				}
				ents = append(ents, e)
				size += sz
				i++
			}
			pg := t.pager.Allocate()
			writeNode(pg, false, ents, uint64(leftmost))
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
