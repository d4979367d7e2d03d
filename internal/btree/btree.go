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
	"slices"

	"oldelephant/internal/storage"
)

// BTree is a B+-tree rooted at a page. Duplicate keys are allowed; entries
// with equal keys are returned in insertion order.
//
// Reads (Scan, Seek, LeafRange, morsel iterators) are safe to run from
// concurrent goroutines as long as no mutation (Insert, Delete, WriteLeaves)
// runs at the same time — the serving layer's reader/writer isolation; page
// accesses themselves are serialized by the pager. Reads change nothing in
// the tree and decode records where they lie (see node): the tree keeps no
// second copy of a page's contents.
type BTree struct {
	pager *storage.Pager
	root  storage.PageID
	// first is the leftmost leaf, where a scan with an open start, or a seek
	// from a key at or below fence, begins without a descent. New and
	// WriteLeaves set it and nothing moves it: a split keeps its left half in
	// place, a root split keeps the old root as the new root's leftmost
	// child, and Delete never frees a leaf.
	first storage.PageID
	// fence is the first separator above first (nil while the tree is one
	// leaf): no separator of any level is below it, so every descent to a
	// key <= fence ends in first, and a seek from such a key loads first
	// directly. WriteLeaves sets it, a split of the leftmost leaf lowers it
	// (insertInto), and nothing else moves it: a separator is only ever
	// added by a split, and Delete leaves the internal nodes as they are.
	fence  []byte
	height int
	count  int64
	// model predicts the leaf a bounded start begins in, from the number num
	// gives its key (model.go); nil when the tree has none, and then every
	// start past the fence descends.
	model *Model
	num   KeyNumber
}

// Anchors are what the catalog meta persists of a tree beside its pages:
// root, leftmost leaf and its fence, height, count and the leaf model (nil
// for none).
type Anchors struct {
	Root, First storage.PageID
	Fence       []byte
	Height      int
	Count       int64
	Model       *Model
}

// New creates an empty tree. Its leaves charge every entry
// storage.TupleOverhead bytes, emulating the row header.
func New(pager *storage.Pager) (*BTree, error) {
	root, err := pager.Allocate()
	if err != nil {
		return nil, err
	}
	_ = writeNode(root, true, nil, 0) // an empty node always fits
	return Open(pager, Anchors{Root: root.ID(), First: root.ID(), Height: 1}), nil
}

// Open reattaches a tree to its pages (recovery path: the anchors come from
// the persisted catalog meta; the pages themselves were restored by the data
// file load + WAL replay). The caller sets the key number (SetKeyNumber)
// before a seek can use the model.
func Open(pager *storage.Pager, a Anchors) *BTree {
	return &BTree{pager: pager, root: a.Root, first: a.First, fence: a.Fence, height: a.Height, count: a.Count, model: a.Model}
}

// Anchors returns what Open needs to reattach the tree.
func (t *BTree) Anchors() Anchors {
	return Anchors{Root: t.root, First: t.first, Fence: t.fence, Height: t.height, Count: t.count, Model: t.model}
}

// Count returns the number of entries in the tree.
func (t *BTree) Count() int64 { return t.count }

// Height returns the number of levels (1 = a single leaf).
func (t *BTree) Height() int { return t.height }

// RootPage returns the page id of the root node.
func (t *BTree) RootPage() storage.PageID { return t.root }

// FirstLeaf returns the page id of the leftmost leaf.
func (t *BTree) FirstLeaf() storage.PageID { return t.first }

// Fence returns the first separator above the leftmost leaf, nil for a
// one-leaf tree. The slice must not be modified.
func (t *BTree) Fence() []byte { return t.fence }

// Node layout (record layout v4). A node owns its page whole; the one word
// it shares with the pager's page API is Aux, its link:
//
//	offset 0:  uint16 record count
//	offset 2:  node kind (kindLeaf or kindInternal)
//	offset 3:  record geometry (geoKey, geoVal or geoVary)
//	offset 4:  uint16 the geometry's width
//	offset 6:  uint64 link (Page.Aux): a leaf's right sibling, an internal
//	           node's leftmost child (covering keys below the first separator)
//	offset 14: one uint16 record offset per record, ascending
//	...        free space
//	the records, back to back in key order, the last ending at PageSize
//
// A record runs from its offset to the next record's (to PageSize for the
// last), so no record stores its length. Under geoKey every key is width
// bytes and a record is key || payload; under geoVal every payload is width
// bytes, and the record is again key || payload; under geoVary the record is
// uvarint(len(key)) || key || payload. writeNode picks the geometry from the
// entries it writes (nodeSize.geometry); an internal record's payload is its
// child's page id as a uvarint. writeNode writes this format and node reads
// it; nothing else in the package looks inside a page.
const (
	kindLeaf     byte = 1
	kindInternal byte = 2

	geoKey  byte = 1 // every key has the same width
	geoVal  byte = 2 // every payload has the same width
	geoVary byte = 3 // neither: each record leads with its key length

	headerSize = 14
	slotSize   = 2
)

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

// node is the read-side view of one tree page: the pager's page and its
// header, with every record decoded on demand through the offset directory.
// Nothing is copied: the keys and payloads a node hands out alias page
// memory, valid until the tree is next mutated. Tree pages are only ever
// written whole (writeNode).
type node struct {
	pg    *storage.Page
	data  []byte
	n     int
	geo   byte
	width int
}

// node fetches a page through the pager — one charged access per visit.
func (t *BTree) node(id storage.PageID) (node, error) {
	pg, err := t.pager.Get(id)
	if err != nil {
		return node{}, err
	}
	d := pg.Data()
	return node{pg: pg, data: d, n: int(binary.LittleEndian.Uint16(d)), geo: d[3], width: int(binary.LittleEndian.Uint16(d[4:]))}, nil
}

func (nd *node) isLeaf() bool { return nd.data[2] == kindLeaf }

// next is a leaf's right sibling, InvalidPageID at the end of the chain.
func (nd *node) next() storage.PageID { return storage.PageID(nd.pg.Aux()) }

// child is an internal node's i-th child; -1 names the leftmost.
func (nd *node) child(i int) storage.PageID {
	if i < 0 {
		return storage.PageID(nd.pg.Aux())
	}
	_, val := nd.record(i)
	return childID(val)
}

// start is the page offset of record i.
func (nd *node) start(i int) int {
	return int(binary.LittleEndian.Uint16(nd.data[headerSize+slotSize*i:]))
}

func (nd *node) record(i int) (key, val []byte) {
	var k, v [1][]byte
	nd.spans(i, k[:], v[:])
	return k[0], v[0]
}

// spans splits the len(vals) records from slot pos on into their payloads
// (vals) and, when keys is non-nil, their keys — the one reader of the record
// geometry. A drain reads each offset once, as the end of one record and the
// start of the next.
func (nd *node) spans(pos int, keys, vals [][]byte) {
	d := nd.data
	start := nd.start(pos)
	for i := range vals {
		end := storage.PageSize
		if pos+i+1 < nd.n {
			end = nd.start(pos + i + 1)
		}
		rec := d[start:end]
		start = end
		k := nd.width
		switch nd.geo {
		case geoVal:
			k = len(rec) - nd.width
		case geoVary:
			klen, sz := binary.Uvarint(rec)
			rec, k = rec[sz:], int(klen)
		}
		vals[i] = rec[k:]
		if keys != nil {
			keys[i] = rec[:k]
		}
	}
}

// key is record(i)'s key; under geoKey it reads one offset, not two.
func (nd *node) key(i int) []byte {
	if nd.geo == geoKey {
		start := nd.start(i)
		return nd.data[start : start+nd.width]
	}
	key, _ := nd.record(i)
	return key
}

// lowerBound returns the first slot whose key is >= key.
func (nd *node) lowerBound(key []byte) int { return nd.bound(0, nd.n, key, true) }

// upperBound returns the first slot whose key is strictly greater than key
// (so equal keys keep insertion order).
func (nd *node) upperBound(key []byte) int { return nd.bound(0, nd.n, key, false) }

// bound binary-searches the slots [lo, hi) for the first whose key is greater
// than key, or equal to it when orEqual, and returns hi when there is none —
// O(log n) record decodes.
func (nd *node) bound(lo, hi int, key []byte, orEqual bool) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nd.beyond(mid, key, orEqual) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (nd *node) beyond(i int, key []byte, orEqual bool) bool {
	cmp := bytes.Compare(nd.key(i), key)
	return cmp > 0 || (cmp == 0 && orEqual)
}

// boundNear is bound over [lo, n) for a bound expected just after lo — a
// point seek's stop key, a slot or two past its start: it doubles its stride
// from lo until a probe lies beyond, then bisects that last stride, so the
// cost follows the distance to the bound rather than the size of the node.
func (nd *node) boundNear(lo int, key []byte, orEqual bool) int {
	for step := 1; ; step *= 2 {
		probe := lo + step - 1
		if probe >= nd.n {
			return nd.bound(lo, nd.n, key, orEqual)
		}
		if nd.beyond(probe, key, orEqual) {
			return nd.bound(lo, probe, key, orEqual)
		}
		lo = probe + 1
	}
}

// entry is one (key, payload) pair of a node about to be rewritten. In
// internal nodes the payload is the child's page id (childPayload).
type entry struct {
	key []byte
	val []byte
}

// entries materializes the node for a rewrite, with room for one more entry.
// The slices alias the page until writeNode replaces it.
func (nd *node) entries() []entry {
	out := make([]entry, nd.n, nd.n+1)
	for i := range out {
		out[i].key, out[i].val = nd.record(i)
	}
	return out
}

// nodeSize is the packing rule: a node's footprint, accumulated entry by
// entry — each record with its slot and, on a leaf, the row header the tree
// emulates (the paper's per-tuple overhead) — plus the key-length varints,
// which only a node whose key widths and payload widths both vary carries.
// Inserts and bulk loads pack by it, writeNode lays pages out by it, and the
// density pins measure with it (LeafFootprint).
type nodeSize struct {
	n, bytes, klens  int
	key, val         int // the first entry's key and payload widths
	varyKey, varyVal bool
}

// add adds an entry of a key and a payload of the given lengths.
func (s *nodeSize) add(keyLen, valLen, overhead int) {
	if s.n == 0 {
		s.key, s.val = keyLen, valLen
	}
	s.varyKey = s.varyKey || keyLen != s.key
	s.varyVal = s.varyVal || valLen != s.val
	s.n++
	s.bytes += keyLen + valLen + slotSize + overhead
	s.klens += uvarintLen(keyLen)
}

// with is the footprint with such an entry added.
func (s nodeSize) with(keyLen, valLen, overhead int) nodeSize {
	s.add(keyLen, valLen, overhead)
	return s
}

func (s nodeSize) total() int {
	if s.varyKey && s.varyVal {
		return s.bytes + s.klens
	}
	return s.bytes
}

// geometry is the record geometry of a node holding the entries added so
// far, and its width.
func (s nodeSize) geometry() (byte, int) {
	switch {
	case !s.varyKey:
		return geoKey, s.key
	case !s.varyVal:
		return geoVal, s.val
	}
	return geoVary, 0
}

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// writeNode rewrites pg whole as a node of the given kind holding entries
// and the link word. Entries that do not fit the page are an error, and the
// page is then left as it was: a node is never written in part.
func writeNode(pg *storage.Page, isLeaf bool, entries []entry, link uint64) error {
	// Lay the page out in a scratch image first: the entries frequently alias
	// the very page being rewritten (they come from node.entries).
	var img [storage.PageSize]byte
	if err := layNode(img[:], isLeaf, entries); err != nil {
		return err
	}
	copy(pg.Data(), img[:])
	pg.SetAux(link)
	return nil
}

// layNode lays a node holding entries out in img, a zeroed page image,
// leaving its link word zero.
func layNode(img []byte, isLeaf bool, entries []entry) error {
	var size nodeSize
	for _, e := range entries {
		size.add(len(e.key), len(e.val), 0)
	}
	if headerSize+size.total() > storage.PageSize {
		return fmt.Errorf("btree: %d entries of %d bytes overflow a page", len(entries), size.total())
	}
	geo, width := size.geometry()
	off := storage.PageSize - (size.total() - slotSize*len(entries))
	for i, e := range entries {
		binary.LittleEndian.PutUint16(img[headerSize+slotSize*i:], uint16(off))
		if geo == geoVary {
			off += binary.PutUvarint(img[off:], uint64(len(e.key)))
		}
		off += copy(img[off:], e.key)
		off += copy(img[off:], e.val)
	}
	binary.LittleEndian.PutUint16(img[0:], uint16(len(entries)))
	img[2] = kindInternal
	if isLeaf {
		img[2] = kindLeaf
	}
	img[3] = geo
	binary.LittleEndian.PutUint16(img[4:], uint16(width))
	return nil
}

// usableBytes is the payload capacity of a node page.
const usableBytes = storage.PageSize - 64

// MaxEntry is the most key and payload bytes one entry may hold: a quarter
// of a node's capacity, so that a split never leaves a half that overflows
// its page. Insert refuses a larger entry; a bulk load's caller must too.
const MaxEntry = usableBytes / 4

// size is the packing rule's footprint of a node holding entries.
func (t *BTree) size(entries []entry, isLeaf bool) nodeSize {
	var s nodeSize
	for _, e := range entries {
		s.add(len(e.key), len(e.val), leafOverhead(isLeaf))
	}
	return s
}

func leafOverhead(isLeaf bool) int {
	if isLeaf {
		return storage.TupleOverhead
	}
	return 0
}

// nodeFits reports whether the entries fit in one page.
func (t *BTree) nodeFits(entries []entry, isLeaf bool) bool {
	return t.size(entries, isLeaf).total() <= usableBytes
}

// splitAt picks where an overflowing node's entries are cut: where their
// packed bytes balance (nodeSize), so that each half holds at most half the
// node plus one entry. A leaf keeps entries[:mid] and its new right sibling
// entries[mid:]; an internal node's entries[mid] moves up, so both of its
// halves are non-empty. A cut with a half that still does not fit is an
// error (an entry within InsertUnder's limit never causes one), reported
// before any page is touched.
func (t *BTree) splitAt(entries []entry, isLeaf bool) (int, error) {
	ovh := leafOverhead(isLeaf)
	total := t.size(entries, isLeaf).total()
	last := len(entries) - 1 // a leaf's right half keeps at least one entry
	if !isLeaf {
		last-- // and an internal node's at least one beside the one moving up
	}
	mid, left := 1, t.size(entries[:1], isLeaf)
	for mid < last && 2*left.with(len(entries[mid].key), len(entries[mid].val), ovh).total() <= total {
		left.add(len(entries[mid].key), len(entries[mid].val), ovh)
		mid++
	}
	right := entries[mid:]
	if !isLeaf {
		right = entries[mid+1:]
	}
	if !t.nodeFits(entries[:mid], isLeaf) || !t.nodeFits(right, isLeaf) {
		return 0, fmt.Errorf("btree: no split of %d entries fits two pages", len(entries))
	}
	return mid, nil
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
	if len(bound)+len(val) > MaxEntry {
		return fmt.Errorf("btree: entry of %d bytes is too large", len(bound)+len(val))
	}
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
		newRoot, err := t.pager.Allocate()
		if err != nil {
			return err
		}
		ents := []entry{{key: promoted, val: childPayload(newChild)}}
		if err := writeNode(newRoot, false, ents, uint64(t.root)); err != nil {
			return err
		}
		t.root = newRoot.ID()
		t.height++
	}
	t.count++
	return nil
}

// errPredElsewhere is insertInto's report that the target leaf holds no key
// <= bound although leaves to its left exist.
var errPredElsewhere = errors.New("btree: predecessor is not in the target leaf")

// maxKeyLE returns the greatest key <= bound stored under the node id,
// searching right to left past leaves that deletes have emptied.
func (t *BTree) maxKeyLE(id storage.PageID, bound []byte) ([]byte, bool, error) {
	nd, err := t.node(id)
	if err != nil {
		return nil, false, err
	}
	pos := nd.upperBound(bound)
	if nd.isLeaf() {
		if pos == 0 {
			return nil, false, nil
		}
		return nd.key(pos - 1), true, nil
	}
	for i := pos - 1; i >= -1; i-- {
		if key, ok, err := t.maxKeyLE(nd.child(i), bound); ok || err != nil {
			return key, ok, err
		}
	}
	return nil, false, nil
}

// insertInto inserts into the subtree rooted at id (see InsertUnder for
// choose); leftmost says no leaf lies to the subtree's left. If the node
// splits it returns the separator key and the new right sibling's page id.
// A node is materialized (node.entries) only once it is sure to be rewritten.
func (t *BTree) insertInto(id storage.PageID, key, val []byte, choose func(pred []byte) ([]byte, error), leftmost bool) ([]byte, storage.PageID, error) {
	nd, err := t.node(id)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	// Equal keys keep insertion order; in an internal node the child left of
	// that position — under the last separator <= key — covers the key.
	pos := nd.upperBound(key)
	if nd.isLeaf() {
		if choose != nil {
			var pred []byte
			if pos > 0 {
				pred = nd.key(pos - 1)
			} else if !leftmost {
				return nil, storage.InvalidPageID, errPredElsewhere
			}
			if key, err = choose(pred); err != nil {
				return nil, storage.InvalidPageID, err
			}
		}
		// An entry after the last of the rightmost leaf is an append.
		appended := pos == nd.n && nd.next() == storage.InvalidPageID
		sep, right, err := t.store(nd, true, appended, slices.Insert(nd.entries(), pos, entry{key: key, val: val}))
		if leftmost && right != storage.InvalidPageID {
			t.fence = sep // the leftmost leaf split: its new sibling begins at the lowest separator
		}
		return sep, right, err
	}
	promoted, newChild, err := t.insertInto(nd.child(pos-1), key, val, choose, leftmost && pos == 0)
	if err != nil || newChild == storage.InvalidPageID {
		return nil, storage.InvalidPageID, err
	}
	// The child split: its separator goes right after the child's own.
	return t.store(nd, false, false, slices.Insert(nd.entries(), pos, entry{key: promoted, val: childPayload(newChild)}))
}

// store rewrites the node nd to hold entries, splitting it when they do not
// fit one page; on a split it returns the separator and the new right
// sibling's page id. A leaf whose last entry was just appended to the
// rightmost leaf splits at that entry, which alone starts the new leaf, so a
// run of appends (a keyless table's every insert, ascending keys) leaves each
// leaf behind it full, as a bulk load would; any other split is cut where the
// bytes balance (splitAt). A leaf's right half inherits the next link and the
// left half links to it; an internal node's middle entry moves up, its child
// becoming the right half's leftmost.
func (t *BTree) store(nd node, isLeaf, appended bool, entries []entry) ([]byte, storage.PageID, error) {
	link := nd.pg.Aux()
	if t.nodeFits(entries, isLeaf) {
		t.pager.BeforeWrite(nd.pg)
		return nil, storage.InvalidPageID, writeNode(nd.pg, isLeaf, entries, link)
	}
	t.model = nil           // a split moves separators, and its new page ends the contiguous run
	mid := len(entries) - 1 // the leaf held the others, and an entry fits a page alone
	if !appended {
		var err error
		if mid, err = t.splitAt(entries, isLeaf); err != nil {
			return nil, storage.InvalidPageID, err
		}
	}
	// The separator must be copied before the left page is rewritten because
	// the entries alias the page's memory.
	sep := append([]byte(nil), entries[mid].key...)
	right, err := t.pager.Allocate()
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	leftLink := link
	if isLeaf {
		err = writeNode(right, true, entries[mid:], link)
		leftLink = uint64(right.ID())
	} else {
		err = writeNode(right, false, entries[mid+1:], uint64(childID(entries[mid].val)))
	}
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	// The allocation may have evicted nd's page; BeforeWrite re-installs it.
	t.pager.BeforeWrite(nd.pg)
	if err := writeNode(nd.pg, isLeaf, entries[:mid], leftLink); err != nil {
		return nil, storage.InvalidPageID, err
	}
	return sep, right.ID(), nil
}

// Delete removes the first entry with exactly the given key. It returns true
// if an entry was removed. Nodes are not rebalanced: the workload is
// read-mostly and underfull nodes only waste space, never correctness. A
// removal drops the leaf model, which assumes no leaf lost its first key.
func (t *BTree) Delete(key []byte) (bool, error) {
	nd, _, err := t.leafFor(key)
	// The first key >= key decides; leaves that deletes have emptied and
	// leaves of smaller keys are walked past.
	for err == nil {
		if pos := nd.lowerBound(key); pos < nd.n {
			if !bytes.Equal(nd.key(pos), key) {
				return false, nil
			}
			entries := slices.Delete(nd.entries(), pos, pos+1)
			t.pager.BeforeWrite(nd.pg)
			if err := writeNode(nd.pg, true, entries, uint64(nd.next())); err != nil {
				return false, err
			}
			t.count--
			t.model = nil
			return true, nil
		}
		if nd.next() == storage.InvalidPageID {
			return false, nil
		}
		nd, err = t.node(nd.next())
	}
	return false, err
}

// leafFor returns, loaded, a leaf where a seek from key begins: so the caller
// reads it where positioning left it rather than fetching it again, and says
// how it was found. On a tree with a leaf model it reads the leaf the model
// predicts and walks forward along leaf links to the first leaf holding a key
// >= key (walk): the leaf a descent reaches, or the one after it when that
// one holds only smaller keys, which is where the descent's seek goes next.
// It reads no internal page. Any other tree is descended from the root.
// Routing uses a strict comparison so that, with duplicate keys split across
// leaves, the leftmost occurrence is always reachable (iterators follow leaf
// links). Each internal node is binary-searched in place — O(log fanout)
// record decodes per level — which is what keeps a point seek's descent cheap
// enough for the serving layer's prepared-statement hot path.
func (t *BTree) leafFor(key []byte) (node, Start, error) {
	if id, ok := t.predicted(key); ok {
		return t.walk(id, key)
	}
	nd, err := t.descend(key)
	return nd, Start{Descended: true}, err
}

// descend reads the tree from the root down to the leaf that covers key.
func (t *BTree) descend(key []byte) (node, error) {
	id := t.root
	for {
		nd, err := t.node(id)
		if err != nil || nd.isLeaf() {
			return nd, err
		}
		// The child left of the first separator >= key covers the key.
		id = nd.child(nd.lowerBound(key) - 1)
	}
}

// Iterator walks leaf entries in key order: a leaf, read where it lies, and
// a slot position in it.
type Iterator struct {
	tree *BTree
	nd   node           // the leaf under the cursor
	pos  int            // next slot of nd to hand out
	end  int            // slots of nd within the stop bound
	next storage.PageID // the leaf after nd; InvalidPageID once the range ends in nd
	// key and val are the entry Next last returned.
	key, val []byte
	lo       []byte // the range's start bound (nil = open), kept for Reseek
	startKey []byte // positions the cursor in the first non-empty leaf, then nil
	stopKey  []byte // exclusive upper bound unless stopIncl
	stopIncl bool
	// leavesLeft bounds how many further leaf pages the iterator may load
	// (-1 = unbounded). Leaf-range iterators (SeekLeaves) use it to stop at
	// their partition boundary instead of a key.
	leavesLeft int
	start      Start // how the range was positioned
	err        error
}

// Start reports how positioning the iterator on its range read the tree: by a
// descent from the root, or from the leaf the model predicts, rather than
// starting at the leftmost leaf or in the leaf where its previous range
// stopped (Reseek).
func (it *Iterator) Start() Start { return it.start }

// Err returns the first page-access error the iterator hit. Next reports
// exhaustion on error, so callers that see false must check Err to
// distinguish end-of-range from a failed page read.
func (it *Iterator) Err() error { return it.err }

// Key returns the current entry's key. Valid only after Next reported true.
// The slice aliases page memory, which stays readable and unmodified for as
// long as the tree is not mutated, evicted from the buffer pool or not (the
// span keeps its frame alive) — scans may hold key spans across Next calls
// without copying.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current entry's payload. Valid only after Next reported
// true. Like Key, the slice aliases page memory; the projected scan fill
// walks it in place (value.RecordWalker).
func (it *Iterator) Value() []byte { return it.val }

// Next advances the iterator and reports whether an entry is available.
func (it *Iterator) Next() bool {
	if !it.advanceLeaf() {
		return false
	}
	it.key, it.val = it.nd.record(it.pos)
	it.pos++
	return true
}

// NextSpans bulk-advances the iterator, filling keys (when non-nil) and vals
// with up to len(vals) entries' key/value spans, and returns how many it
// filled — fewer only at exhaustion. It is Next/Key/Value with the per-row
// call overhead hoisted out of the loop: batch fills drain a leaf with one
// call per batch. The spans alias page memory exactly as Key/Value do.
func (it *Iterator) NextSpans(keys, vals [][]byte) int {
	n := 0
	for n < len(vals) && it.advanceLeaf() {
		run := min(it.end-it.pos, len(vals)-n)
		if keys != nil {
			it.nd.spans(it.pos, keys[n:n+run], vals[n:n+run])
		} else {
			it.nd.spans(it.pos, nil, vals[n:n+run])
		}
		it.pos += run
		n += run
	}
	return n
}

// advanceLeaf makes sure an unconsumed in-range entry is under the cursor,
// loading further leaves (skipping empty ones) as needed; it returns false at
// the end of the range or on a page error. Both bounds are applied as a leaf
// is loaded, by searching its sorted slots: the start key once, in the first
// leaf that holds anything; the stop key per leaf — one probe of the last key
// says a scan's interior leaf is in range whole, and in the leaf where the
// range ends the first out-of-bound slot is looked for from the cursor on.
func (it *Iterator) advanceLeaf() bool {
	for it.pos >= it.end {
		if it.next == storage.InvalidPageID || it.leavesLeft == 0 {
			return false
		}
		if it.leavesLeft > 0 {
			it.leavesLeft--
		}
		nd, err := it.tree.node(it.next)
		if err != nil {
			it.err, it.next = err, storage.InvalidPageID
			return false
		}
		it.enter(nd)
	}
	return true
}

// enter puts the cursor on the freshly loaded leaf nd and applies the bounds
// to it (see advanceLeaf).
func (it *Iterator) enter(nd node) {
	it.nd, it.pos, it.end, it.next = nd, 0, nd.n, nd.next()
	if it.startKey != nil && nd.n > 0 {
		it.pos, it.startKey = nd.lowerBound(it.startKey), nil
	}
	if it.stopKey != nil && it.pos < nd.n && nd.beyond(nd.n-1, it.stopKey, !it.stopIncl) {
		it.end, it.next = nd.boundNear(it.pos, it.stopKey, !it.stopIncl), storage.InvalidPageID
	}
}

// Scan returns an iterator over the whole tree in key order: a seek with
// both bounds open.
func (t *BTree) Scan() *Iterator { return t.Seek(nil, nil, false) }

// LeafCount returns the number of leaves: the length of the unbounded
// LeafRange, which reads the internal nodes and no leaf.
func (t *BTree) LeafCount() (int, error) {
	leaves, err := t.LeafRange(nil, nil, false)
	return len(leaves), err
}

// LeafFootprint is the bytes the tree's leaves occupy as the packing rule
// counts them (nodeSize, row headers included) — what the density pins
// divide by the row count.
func (t *BTree) LeafFootprint() (int, error) {
	leaves, err := t.LeafRange(nil, nil, false)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, id := range leaves {
		nd, err := t.node(id)
		if err != nil {
			return 0, err
		}
		total += t.size(nd.entries(), true).total()
	}
	return total, nil
}

// LeafRange returns the ids, in chain (key) order, of the consecutive leaves
// that can hold keys in [start, stop]: the leaf Seek(start, ...) begins on
// through the last leaf whose separator does not pass the stop bound. It is
// how parallel scans partition a seek into morsels: each morsel is a run of
// consecutive leaves handed to SeekLeaves. nil bounds are open. The walk
// descends level by level from the root, keeping at each internal node only
// the children that cover the range — at the start bound it routes exactly
// as a seek's descent does — and the level above the leaves names them, so
// it reads internal nodes over the range and no leaf. A separator bounds its
// leaf's keys from below but, once deletes have run, need not be its first
// key, so the run may end in a leaf holding nothing in range: the iterators
// enforce the stop key themselves.
func (t *BTree) LeafRange(start, stop []byte, stopIncl bool) ([]storage.PageID, error) {
	level := []storage.PageID{t.root}
	for h := t.height; h > 1; h-- {
		var below []storage.PageID
		for _, id := range level {
			nd, err := t.node(id)
			if err != nil {
				return nil, err
			}
			lo, hi := -1, nd.n-1
			if start != nil {
				lo = nd.lowerBound(start) - 1 // leafFor's routing
			}
			if stop != nil {
				hi = nd.bound(0, nd.n, stop, !stopIncl) - 1 // the last separator within the stop bound
			}
			for i := lo; i <= hi; i++ {
				below = append(below, nd.child(i))
			}
		}
		level = below
	}
	return level, nil
}

// SeekLeaves returns an iterator over the entries of count consecutive leaf
// pages starting at start (a page id from LeafRange), bounded above by the
// stop key exactly like Seek. A non-nil startKey positions the iterator at the first entry >= startKey
// within the first leaf — the form used by the first split of a partitioned
// seek; later splits pass nil and start at their leaf's first entry.
// Concatenating the iterators of a partition of LeafRange(start, stop,
// stopIncl) — startKey on the first, nil on the rest — reproduces
// Seek(start, stop, stopIncl) exactly.
func (t *BTree) SeekLeaves(start storage.PageID, count int, startKey, stop []byte, stopIncl bool) *Iterator {
	it := &Iterator{tree: t, startKey: startKey, stopKey: stop, stopIncl: stopIncl, next: start, leavesLeft: max(count, 0)}
	if startKey != nil {
		it.advanceLeaf() // a positioned iterator reads its first leaf now
	}
	return it
}

// Seek returns an iterator positioned at the first entry with key >= start
// (nil start begins at the leftmost leaf, which is then loaded lazily, with
// no descent). If stop is non-nil the iteration ends at stop (inclusive when
// stopIncl). A start at or below the fence begins at the leftmost leaf too,
// loaded at once: the descent would end there. Any other start is positioned
// by leafFor — from the leaf the model predicts, or by a descent from the
// root — and the leaf it loads is the iterator's first, read once.
func (t *BTree) Seek(start, stop []byte, stopIncl bool) *Iterator {
	it := &Iterator{tree: t}
	it.Reseek(start, stop, stopIncl)
	return it
}

// Reseek re-positions the iterator on a new range, yielding exactly what
// Seek(start, stop, stopIncl) would. A range forward of the one the iterator
// was on begins in the leaf where that range stopped, with no descent (see
// follows). That leaf is fetched again through the pager: a hit while it
// stays resident, a charged read once the pool has let it go. Any other range
// is positioned as Seek positions it.
func (it *Iterator) Reseek(start, stop []byte, stopIncl bool) {
	t := it.tree
	from := storage.InvalidPageID
	if it.follows(start) {
		from = it.nd.pg.ID()
	}
	*it = Iterator{tree: t, lo: start, startKey: start, stopKey: stop, stopIncl: stopIncl, next: t.first, leavesLeft: -1}
	if start == nil {
		return
	}
	var nd node
	var err error
	switch {
	case from != storage.InvalidPageID:
		nd, err = t.node(from)
	case t.height == 1 || bytes.Compare(start, t.fence) <= 0:
		nd, err = t.node(t.first)
	default:
		nd, it.start, err = t.leafFor(start)
	}
	if err != nil {
		it.err, it.next = err, storage.InvalidPageID
		return
	}
	it.enter(nd)
	it.advanceLeaf()
}

// follows reports whether a range from start begins in the leaf under the
// cursor. Every key in a leaf before that one lies below the current range's
// start (the positioning routed past it) or within its stop bound (the
// cursor walked past it), so a start at or above the one and beyond the
// other is above all of them; the first entry >= start is then in this leaf
// if it holds a key >= start, and nowhere if it ends the chain. The leaf's
// last key and link are read from the frame the cursor holds; it is never
// positioned in without a fetch. Leaf-range iterators (SeekLeaves) and
// ranges with an open stop never qualify.
func (it *Iterator) follows(start []byte) bool {
	nd := &it.nd
	if nd.pg == nil || it.err != nil || start == nil || it.stopKey == nil || it.leavesLeft >= 0 ||
		bytes.Compare(start, it.lo) < 0 || bytes.Compare(start, it.stopKey) <= 0 {
		return false
	}
	return nd.next() == storage.InvalidPageID || nd.n > 0 && bytes.Compare(start, nd.key(nd.n-1)) <= 0
}

// Get returns the payload of the first entry matching key exactly.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	it := t.Seek(key, key, true)
	if it.Next() {
		return it.Value(), true, nil
	}
	return nil, false, it.Err()
}

// AllPages returns every page id the tree occupies (internal nodes and
// leaves), so DROP TABLE can hand them to the pager's freelist.
func (t *BTree) AllPages() ([]storage.PageID, error) {
	var out []storage.PageID
	var walk func(id storage.PageID) error
	walk = func(id storage.PageID) error {
		out = append(out, id)
		nd, err := t.node(id)
		if err != nil || nd.isLeaf() {
			return err
		}
		for i := -1; i < nd.n; i++ {
			if err := walk(nd.child(i)); err != nil {
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
