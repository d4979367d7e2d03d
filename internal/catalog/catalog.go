// Package catalog manages the schema objects of a database instance —
// tables, columns, clustered and secondary indexes — together with their
// physical storage (heap files or B+-trees) and basic optimizer statistics.
package catalog

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"oldelephant/internal/btree"
	"oldelephant/internal/keysort"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// Column describes one table column.
type Column struct {
	Name string
	Kind value.Kind
}

// Catalog is the set of tables of one database instance. All tables share
// one pager so I/O statistics are accounted globally.
type Catalog struct {
	mu     sync.RWMutex
	pager  *storage.Pager
	tables map[string]*Table
}

// New creates an empty catalog over the pager.
func New(pager *storage.Pager) *Catalog {
	return &Catalog{pager: pager, tables: make(map[string]*Table)}
}

// Pager returns the pager shared by all tables in the catalog.
func (c *Catalog) Pager() *storage.Pager { return c.pager }

// CreateTable registers a new table. If clusteredKey is non-empty the table
// is stored in a clustered B+-tree on those columns (rows are kept in key
// order); otherwise rows go to a heap file.
func (c *Catalog) CreateTable(name string, cols []Column, clusteredKey []string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %q must have at least one column", name)
	}
	seen := make(map[string]bool)
	for _, col := range cols {
		lc := strings.ToLower(col.Name)
		if seen[lc] {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, name)
		}
		seen[lc] = true
	}
	t := &Table{
		Name:    name,
		Columns: cols,
		catalog: c,
		Stats:   NewTableStats(cols),
	}
	if len(clusteredKey) > 0 {
		ords, err := t.ordinals(clusteredKey)
		if err != nil {
			return nil, err
		}
		tree, err := btree.New(c.pager)
		if err != nil {
			return nil, err
		}
		t.Clustered = &Index{
			Name:       name + "_clustered",
			Table:      t,
			KeyColumns: ords,
			Clustered:  true,
			tree:       tree,
		}
	} else {
		t.heap = storage.NewHeapFile(c.pager)
	}
	t.initLayouts()
	c.tables[key] = t
	return t, nil
}

// Table looks up a table by case-insensitive name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// HasTable reports whether a table exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[strings.ToLower(name)]
	return ok
}

// DropTable removes a table from the catalog and returns its pages (index
// nodes, leaves, heap pages) to the pager's freelist for reuse. Every tree is
// walked before anything is freed: a walk that fails on a page error leaves
// the table in place and the freelist untouched, rather than dropping the
// table and leaking its pages.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	var pages []storage.PageID
	indexes := t.Secondary
	if t.Clustered != nil {
		indexes = append([]*Index{t.Clustered}, indexes...)
	} else {
		pages = append(pages, t.heap.PageIDs()...)
	}
	for _, ix := range indexes {
		ids, err := ix.tree.AllPages()
		if err != nil {
			return fmt.Errorf("catalog: drop table %q: index %q: %w", name, ix.Name, err)
		}
		pages = append(pages, ids...)
	}
	for _, id := range pages {
		c.pager.FreePage(id)
	}
	delete(c.tables, key)
	return nil
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Table is one relation: schema, storage and indexes.
type Table struct {
	Name    string
	Columns []Column

	// Clustered is the clustered index, nil for heap tables.
	Clustered *Index
	// Secondary are the nonclustered indexes.
	Secondary []*Index

	Stats *TableStats

	catalog *Catalog
	heap    *storage.HeapFile
	// layout places each column of a stored row (see Layout); keyOrds lists
	// the columns some index stores in key bytes, which storedRow holds to
	// the declared kind. Both are derived from the schema by initLayouts.
	layout  *Layout
	keyOrds []int
}

// ColumnIndex returns the ordinal of the named column (case-insensitive), or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

func (t *Table) ordinals(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		ord := t.ColumnIndex(n)
		if ord < 0 {
			return nil, fmt.Errorf("catalog: table %q has no column %q", t.Name, n)
		}
		out[i] = ord
	}
	return out, nil
}

// IsClustered reports whether the table is stored in a clustered index.
func (t *Table) IsClustered() bool { return t.Clustered != nil }

// RowCount returns the current number of rows.
func (t *Table) RowCount() int64 {
	if t.Clustered != nil {
		return t.Clustered.tree.Count()
	}
	return t.heap.RowCount()
}

// DataPages returns the number of pages holding the table's rows (leaf pages
// of the clustered index, counted from the level above them, or heap pages).
func (t *Table) DataPages() (int, error) {
	if t.Clustered != nil {
		return t.Clustered.tree.LeafCount()
	}
	return t.heap.NumPages(), nil
}

// Record layout. Every column is stored exactly once. A clustered record's
// tree key is the stored-key encoding of its clustered-key columns, each as
// narrow as its declared kind allows (value.AppendStoredKeyValue) — plus a
// uniquifier, but only on a row whose key some stored row already carries —
// and its payload is a record (value.AppendRecord) of the remaining columns
// under their declared kinds. A secondary entry's key is its index-key
// columns, encoded the same way, followed by the base row's locator (its
// exact clustered tree key, or its RID on a heap), and its payload is a
// record of the included columns found in neither. A heap row is one record
// of every column.

// Layout says where each logical column of a stored record lives. The logical
// columns are what Cursor.Next returns, in order: every table column for a
// table's own rows, EntryColumnOrdinals for a secondary-index entry.
type Layout struct {
	// Ords[i] is the table ordinal of logical column i.
	Ords []int
	// Exactly one of KeyPos[i] (position among the key's encoded values) and
	// PayPos[i] (field position in the payload record) is >= 0.
	KeyPos, PayPos []int
	// KeyKinds[p] is the declared kind of the column at key position p: what
	// its stored key value is encoded, skipped and decoded under. PayKinds[p]
	// is the declared kind of payload field p, which the payload record is
	// encoded and walked under.
	KeyKinds, PayKinds []value.Kind

	payOrds  []int // table ordinals by payload position
	keyOutAt []int // logical column decoded from key position p, or -1 to skip it
}

// newLayout builds the layout of records whose key encodes the columns
// keyOrds and whose payload record holds payOrds, presented as logical
// columns ords (each of which must be in one of the two).
func newLayout(cols []Column, ords, keyOrds, payOrds []int) *Layout {
	l := &Layout{
		Ords: ords, KeyPos: make([]int, len(ords)), PayPos: make([]int, len(ords)), payOrds: payOrds,
	}
	for i, ord := range ords {
		l.KeyPos[i] = slices.Index(keyOrds, ord)
		l.PayPos[i] = -1
		if l.KeyPos[i] < 0 {
			l.PayPos[i] = slices.Index(payOrds, ord)
		}
	}
	l.KeyKinds, l.keyOutAt = make([]value.Kind, len(keyOrds)), make([]int, len(keyOrds))
	for p, ord := range keyOrds {
		l.KeyKinds[p] = cols[ord].Kind
		l.keyOutAt[p] = -1
	}
	for _, ord := range payOrds {
		l.PayKinds = append(l.PayKinds, cols[ord].Kind)
	}
	for i, p := range l.KeyPos {
		if p >= 0 {
			l.keyOutAt[p] = i
		}
	}
	return l
}

// decodeRow assembles the logical columns of one record from its raw spans.
// scratch is the caller's reusable payload-decode buffer.
func (l *Layout) decodeRow(key, payload []byte, scratch *[]value.Value) ([]value.Value, error) {
	row := make([]value.Value, len(l.Ords))
	if err := l.decodeKey(key, row); err != nil {
		return nil, err
	}
	vals, err := value.DecodeRecordInto(*scratch, l.PayKinds, payload)
	if err != nil {
		return nil, err
	}
	*scratch = vals
	for i, p := range l.PayPos {
		if p >= 0 {
			row[i] = vals[p]
		}
	}
	return row, nil
}

// encodePayload appends the payload record of row (a full table row); a
// layout with no payload columns stores no payload bytes at all.
func (l *Layout) encodePayload(dst []byte, row []value.Value, scratch *[]value.Value) []byte {
	vals := (*scratch)[:0]
	for _, ord := range l.payOrds {
		vals = append(vals, row[ord])
	}
	*scratch = vals
	return value.AppendRecord(dst, l.PayKinds, vals)
}

// Layout returns the record layout of the table's own rows.
func (t *Table) Layout() *Layout { return t.layout }

// Layout returns the record layout of the index's entries (of the table's own
// rows, for the clustered index).
func (ix *Index) Layout() *Layout { return ix.layout }

// initLayouts derives the table's and its indexes' layouts and the strictly typed
// column set from the schema; CreateTable, CreateIndex and RestoreMeta call it.
func (t *Table) initLayouts() {
	all := make([]int, len(t.Columns))
	for i := range all {
		all[i] = i
	}
	var clusterKey []int
	if t.Clustered != nil {
		clusterKey = t.Clustered.KeyColumns
	}
	var rest []int
	for _, ord := range all {
		if !slices.Contains(clusterKey, ord) {
			rest = append(rest, ord)
		}
	}
	t.layout = newLayout(t.Columns, all, clusterKey, rest)
	if t.Clustered != nil {
		t.Clustered.layout = t.layout
	}
	t.keyOrds = slices.Clone(clusterKey)
	for _, ix := range t.Secondary {
		ix.initLayout()
		t.keyOrds = append(t.keyOrds, ix.KeyColumns...)
	}
}

// initLayout derives a secondary index's entry layout. The key holds the
// index-key columns, then the clustered-key columns of the locator; the
// payload holds the included columns found in neither. The logical order is
// key columns, included columns, then locator-only columns.
func (ix *Index) initLayout() {
	t := ix.Table
	keyOrds := slices.Clone(ix.KeyColumns)
	if t.Clustered != nil {
		keyOrds = append(keyOrds, t.Clustered.KeyColumns...)
	}
	var ords, payOrds []int
	for _, o := range ix.KeyColumns {
		if !slices.Contains(ords, o) {
			ords = append(ords, o)
		}
	}
	for _, o := range ix.IncludedColumns {
		if !slices.Contains(ords, o) {
			ords = append(ords, o)
			if !slices.Contains(keyOrds, o) {
				payOrds = append(payOrds, o)
			}
		}
	}
	for _, o := range keyOrds[len(ix.KeyColumns):] {
		if !slices.Contains(ords, o) {
			ords = append(ords, o)
		}
	}
	ix.layout = newLayout(t.Columns, ords, keyOrds, payOrds)
}

// uniquifierLen is the width of the suffix that keeps a duplicate clustered
// key distinct: the big-endian count of rows stored earlier under the same
// key. The first row of a key carries none.
const uniquifierLen = 4

// keySentinel sorts after every suffix that can follow a key prefix in a tree
// key — further key values (every class byte is below 0xFF), a uniquifier, a
// RID — so prefix + keySentinel bounds all keys sharing the prefix from above.
var keySentinel = bytes.Repeat([]byte{0xFF}, ridLen+1)

// uniquify returns the tree key of a new row whose clustered-key columns
// encode to bare, given pred, the greatest stored key <= bare+keySentinel:
// bare itself unless pred already carries it, else bare plus the next
// uniquifier, which sorts directly after pred.
func uniquify(bare, pred []byte) ([]byte, error) {
	if !bytes.HasPrefix(pred, bare) {
		return bare, nil
	}
	var n uint32
	if suffix := pred[len(bare):]; len(suffix) == uniquifierLen {
		n = binary.BigEndian.Uint32(suffix)
	}
	if n == 1<<32-1 {
		return nil, fmt.Errorf("catalog: too many rows share one clustered key")
	}
	return binary.BigEndian.AppendUint32(bare[:len(bare):len(bare)], n+1), nil
}

// storedRow validates a row for insertion and coerces every value to its
// column's declared kind where that loses nothing (value.CoerceKeyValue), so a
// row reads the same from key bytes, from a payload and from an index built
// later. Only a column that some index stores in key bytes is strictly typed:
// there a value that cannot be coerced refuses the row, elsewhere it is stored
// as given. The input is copied only when a value changes.
func (t *Table) storedRow(row []value.Value) ([]value.Value, error) {
	if len(row) != len(t.Columns) {
		return nil, fmt.Errorf("catalog: table %q expects %d columns, got %d", t.Name, len(t.Columns), len(row))
	}
	out := row
	for ord, col := range t.Columns {
		v, changed, err := value.CoerceKeyValue(row[ord], col.Kind)
		if err != nil {
			if !slices.Contains(t.keyOrds, ord) {
				continue
			}
			return nil, fmt.Errorf("catalog: table %q key column %q: %w", t.Name, col.Name, err)
		}
		if changed {
			if &out[0] == &row[0] {
				out = slices.Clone(row)
			}
			out[ord] = v
		}
	}
	return out, nil
}

// bareKey encodes the (coerced) row's clustered-key columns.
func (t *Table) bareKey(row []value.Value) []byte {
	key := make([]byte, 0, 9*len(t.Clustered.KeyColumns)+uniquifierLen)
	for _, ord := range t.Clustered.KeyColumns {
		key = value.AppendStoredKeyValue(key, row[ord])
	}
	return key
}

// Insert adds one row, maintaining the clustered storage, every secondary
// index and the table statistics.
func (t *Table) Insert(row []value.Value) error {
	row, err := t.storedRow(row)
	if err != nil {
		return err
	}
	_, err = t.insertStored(row)
	return err
}

// insertStored is Insert for a row storedRow has already vetted. It returns
// the row's locator.
func (t *Table) insertStored(row []value.Value) ([]byte, error) {
	var scratch []value.Value
	var locator []byte
	if t.Clustered != nil {
		bare := t.bareKey(row)
		bound := append(bare[:len(bare):len(bare)], keySentinel...)
		payload := t.layout.encodePayload(nil, row, &scratch)
		err := t.Clustered.tree.InsertUnder(bound, payload, func(pred []byte) (key []byte, err error) {
			locator, err = uniquify(bare, pred)
			return locator, err
		})
		if err != nil {
			return nil, err
		}
	} else {
		rid, err := t.heap.Insert(t.layout.encodePayload(nil, row, &scratch))
		if err != nil {
			return nil, err
		}
		locator = ridLocator(rid)
	}
	for _, ix := range t.Secondary {
		if err := ix.tree.Insert(ix.entryKey(row, locator), ix.layout.encodePayload(nil, row, &scratch)); err != nil {
			return nil, err
		}
	}
	t.Stats.observe(row)
	return locator, nil
}

// IndexDef names a secondary index for Table.BulkLoad to create once the rows
// are stored: the same index CreateIndex makes, built from the rows in hand.
type IndexDef struct {
	Name             string
	Columns, Include []string
	Unique           bool
}

// BulkLoad loads many rows into an empty table at once, then creates the
// indexes defs names. A clustered table's rows are put in clustered-key order
// — sorted only if they do not arrive in it, rows sharing a key in input
// order, as repeated Inserts would keep them — and bulk-loaded bottom-up,
// which is dramatically faster than repeated inserts. Every secondary index,
// existing or new, is built the same way from the stored rows in hand; the
// table is never read back. No row is stored unless every row is acceptable,
// and a table that already holds rows is refused untouched: a bulk load
// replaces a tree's root, so it would orphan the rows already there.
func (t *Table) BulkLoad(rows [][]value.Value, defs ...IndexDef) error {
	if n := t.RowCount(); n > 0 {
		return fmt.Errorf("catalog: bulk load into table %q, which already holds %d rows", t.Name, n)
	}
	added := make([]*Index, 0, len(defs))
	for _, def := range defs {
		ix, err := t.indexFor(def, added)
		if err != nil {
			return err
		}
		added = append(added, ix)
	}
	stored := make([][]value.Value, len(rows))
	for i, row := range rows {
		var err error
		if stored[i], err = t.storedRow(row); err != nil {
			return err
		}
	}
	// A heap keeps its existing indexes row by row, as Insert does.
	indexes := added
	load := t.loadHeap
	if t.Clustered != nil {
		indexes, load = slices.Concat(t.Secondary, added), t.loadClustered
	}
	prepared, err := load(stored, indexes)
	if err != nil {
		return err
	}
	// The indexes' trees are filled one after another, existing ones first,
	// so their pages are allocated in the order CREATE INDEX would.
	for i, ix := range indexes {
		if ix.tree == nil {
			if ix.tree, err = btree.New(t.catalog.pager); err != nil {
				return err
			}
		}
		if err := ix.fill(prepared[i]); err != nil {
			return err
		}
	}
	if len(added) > 0 {
		t.Secondary = append(t.Secondary, added...)
		t.initLayouts() // the new key columns join the coerced set
	}
	return nil
}

// loadHeap inserts stored rows into an empty heap table and returns the
// entries of indexes, built from the rows in hand.
func (t *Table) loadHeap(stored [][]value.Value, indexes []*Index) ([]*entries, error) {
	locs := make([][]byte, len(stored))
	for i, row := range stored {
		var err error
		if locs[i], err = t.insertStored(row); err != nil {
			return nil, err
		}
	}
	prepared := make([]*entries, len(indexes))
	for i, ix := range indexes {
		var err error
		if prepared[i], err = ix.entries(stored, locs); err != nil {
			return nil, err
		}
	}
	return prepared, nil
}

// loadClustered bulk-loads the clustered tree of an empty table with stored
// rows and returns the entries of indexes, built from the rows in hand. Only
// the tree's build allocates pages: the statistics and every index's entries
// are worked out beside it, on other goroutines.
func (t *Table) loadClustered(stored [][]value.Value, indexes []*Index) ([]*entries, error) {
	keys := keysort.New(len(stored), 9*len(t.Clustered.KeyColumns))
	for _, row := range stored {
		for _, ord := range t.Clustered.KeyColumns {
			keys.Buf = value.AppendStoredKeyValue(keys.Buf, row[ord])
		}
		keys.End()
	}
	order := keys.Order()
	rows := make([][]value.Value, len(order))
	locs := make([][]byte, len(order))
	for i, p := range order {
		rows[i], locs[i] = stored[p], keys.Key(p)
		if i > 0 {
			// Sorted input makes the previous row the predecessor Insert would find.
			var err error
			if locs[i], err = uniquify(locs[i], locs[i-1]); err != nil {
				return nil, err
			}
		}
	}
	prepared := make([]*entries, len(indexes))
	errs := make([]error, len(indexes))
	var wg sync.WaitGroup
	wg.Add(1 + len(indexes))
	go func() {
		defer wg.Done()
		for _, row := range rows {
			t.Stats.observe(row)
		}
	}()
	for i, ix := range indexes {
		go func() {
			defer wg.Done()
			prepared[i], errs[i] = ix.entries(rows, locs)
		}()
	}
	var scratch []value.Value
	var payload []byte
	i := 0
	err := t.Clustered.tree.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= len(rows) {
			return nil, nil, false
		}
		payload = t.layout.encodePayload(payload[:0], rows[i], &scratch)
		i++
		return locs[i-1], payload, true
	}, 0.95)
	wg.Wait()
	for _, e := range errs {
		err = cmp.Or(err, e)
	}
	return prepared, err
}

// Range is the one access-path descriptor of the storage layer: a key-prefix
// range, open or bounded, over a clustered tree, a secondary index or a heap
// (open only). A range is a cheap value; Open starts a fresh cursor, so a
// range can be re-scanned and distinct ranges can be consumed by concurrent
// workers. Opening is lazy — a root-to-leaf descent at most, none for an open
// start, which begins at the tree's leftmost leaf — and that is all a serial
// scan ever pays. EstRows and Split serve the (single-threaded)
// parallel rewrite only: they name the range's leaves once, from the level
// above them (btree.BTree.LeafRange), paying reads of internal pages only,
// and keep them in the range.
type Range struct {
	tree   *btree.BTree      // clustered tree or secondary index; nil for a heap
	heap   *storage.HeapFile // set iff tree is nil
	layout *Layout           // of the records the range yields

	// Encoded key bounds (see encodeBound); nil is open. empty marks a range a
	// bound rules out altogether (k = 3.5 on an INT key): it reads no page.
	start, stop []byte
	stopIncl    bool
	empty       bool

	// A split is restricted to a run of pageCount consecutive leaves from
	// leaf (only the first split of a range keeps start) or heap pages from
	// pageFrom. It keeps no leaf list, so a cached plan's morsels do not hold
	// their range's.
	split               bool
	leaf                storage.PageID
	pageFrom, pageCount int

	// Partitioning state filled by size: the leaves in range, rows per leaf
	// or heap page, and a page error hit while walking, carried into
	// execution so a corrupt tree fails the query instead of silently
	// scanning nothing.
	sized   bool
	leaves  []storage.PageID
	perUnit int64
	err     error

	// OnLeaf, when set on an unsplit tree range, is told the last key of
	// every leaf the range's cursor loads (see btree.BTree.SeekWatch).
	OnLeaf func(lastKey []byte)
}

// Range describes the rows whose clustered-key prefix lies in [lo, hi] by
// value.Compare, column by column. nil bounds are open and inclusivity applies
// per bound; bound values may be of any kind (see encodeBound). The fully open
// range is the full scan (clustered-key order, or insertion order for a heap)
// and the only range a heap supports.
func (t *Table) Range(lo, hi []value.Value, loIncl, hiIncl bool) (Range, error) {
	if t.Clustered != nil {
		return t.Clustered.Range(lo, hi, loIncl, hiIncl), nil
	}
	if lo != nil || hi != nil {
		return Range{}, fmt.Errorf("catalog: table %q has no clustered index", t.Name)
	}
	return Range{heap: t.heap, layout: t.layout, pageCount: t.heap.NumPages()}, nil
}

// Range describes the index entries whose key-column prefix lies in [lo, hi]
// (same bounds semantics as Table.Range).
func (ix *Index) Range(lo, hi []value.Value, loIncl, hiIncl bool) Range {
	kinds := ix.layout.KeyKinds
	start, startIncl, noLo := encodeBound(kinds, lo, false, loIncl)
	stop, stopIncl, noHi := encodeBound(kinds, hi, true, hiIncl)
	if start != nil && !startIncl {
		start = append(start, keySentinel...)
	}
	if stop != nil && stopIncl {
		stop = append(stop, keySentinel...)
	}
	return Range{tree: ix.tree, layout: ix.layout, start: start, stop: stop, stopIncl: stopIncl, empty: noLo || noHi}
}

// Scan opens a cursor over all rows of the table.
func (t *Table) Scan() *Cursor {
	r, _ := t.Range(nil, nil, false, false) // the open range always exists
	return r.Open()
}

// Open returns a fresh cursor over the range.
func (r *Range) Open() *Cursor {
	c := &Cursor{layout: r.layout}
	switch {
	case r.err != nil:
		c.err = r.err
	case r.empty:
	case r.tree == nil:
		c.heap = r.heap.ScanPages(r.pageFrom, r.pageCount)
	case r.split:
		c.tree = r.tree.SeekLeaves(r.leaf, r.pageCount, r.start, r.stop, r.stopIncl)
	default:
		c.tree = r.tree.SeekWatch(r.start, r.stop, r.stopIncl, r.OnLeaf)
	}
	return c
}

// size walks the range once: the run of leaves it touches and the tree's
// average leaf fill (or the heap's average page fill). Both come from the
// level above the leaves, so sizing reads no leaf; a page error on the way is
// kept in err for the range's cursors to report.
func (r *Range) size() {
	if r.sized {
		return
	}
	r.sized = true
	units := r.pageCount
	if r.tree != nil && !r.empty {
		r.leaves, r.err = r.tree.LeafRange(r.start, r.stop, r.stopIncl)
		if r.err == nil {
			units, r.err = r.tree.LeafCount()
		}
	}
	r.perUnit = 1
	if units > 0 {
		r.perUnit = max(1, r.storedRows()/int64(units))
	}
}

// storedRows is the row (or entry) count of the whole underlying structure.
func (r *Range) storedRows() int64 {
	if r.tree == nil {
		return r.heap.RowCount()
	}
	return r.tree.Count()
}

// EstRows is the parallelization-threshold input: the exact row count for an
// open range (no page is read), leaf count x average leaf fill for a bounded
// one — only the order of magnitude matters there.
func (r *Range) EstRows() int64 {
	if !r.split && r.start == nil && r.stop == nil && !r.empty {
		return r.storedRows()
	}
	r.size()
	return int64(len(r.leaves)) * r.perUnit
}

// Split partitions the range into sub-ranges of roughly targetRows rows each
// (leaf or page granularity, so actual sizes vary with fill). Concatenating
// the sub-ranges' cursors in slice order reproduces the range's own cursor
// exactly. An empty range yields nil; a page error while walking yields the
// range itself, whose cursor reports it.
func (r *Range) Split(targetRows int64) []Range {
	r.size()
	if r.err != nil {
		return []Range{*r}
	}
	units := r.pageCount
	if r.tree != nil {
		units = len(r.leaves)
	}
	per := int(targetRows / r.perUnit)
	if per < 1 {
		per = 1
	}
	var out []Range
	for i := 0; i < units; i += per {
		n := per
		if i+n > units {
			n = units - i
		}
		sub := *r
		sub.split, sub.pageCount, sub.leaves = true, n, nil
		if r.tree == nil {
			sub.pageFrom = r.pageFrom + i
		} else {
			sub.leaf = r.leaves[i]
			if i > 0 {
				sub.start = nil
			}
		}
		out = append(out, sub)
	}
	return out
}

// ridLen is the width of a heap row's locator: page id and slot, big-endian.
const ridLen = 10

func ridLocator(rid storage.RID) []byte {
	loc := binary.BigEndian.AppendUint64(make([]byte, 0, ridLen), uint64(rid.Page))
	return binary.BigEndian.AppendUint16(loc, rid.Slot)
}

// Locator returns the base-row locator carried at the end of a secondary
// entry's tree key: the row's exact clustered tree key, or its RID on a heap.
// The result aliases key.
func (ix *Index) Locator(key []byte) ([]byte, error) {
	off := 0
	for p := range ix.KeyColumns {
		n, err := value.SkipKeyValue(key[off:], ix.layout.KeyKinds[p])
		if err != nil {
			return nil, err
		}
		off += n
	}
	return key[off:], nil
}

// Lookup fetches the one base row a locator (see Index.Locator) names.
func (t *Table) Lookup(locator []byte) ([]value.Value, error) {
	var scratch []value.Value
	if t.Clustered == nil {
		if len(locator) != ridLen {
			return nil, fmt.Errorf("catalog: table %q: bad RID locator of %d bytes", t.Name, len(locator))
		}
		rec, err := t.heap.Get(storage.RID{
			Page: storage.PageID(binary.BigEndian.Uint64(locator)),
			Slot: binary.BigEndian.Uint16(locator[8:]),
		})
		if err != nil {
			return nil, err
		}
		return t.layout.decodeRow(nil, rec, &scratch)
	}
	payload, ok, err := t.Clustered.tree.Get(locator)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("catalog: table %q has no row at locator %x", t.Name, locator)
	}
	return t.layout.decodeRow(locator, payload, &scratch)
}

// encodeBound converts one value-space prefix bound — lower or upper,
// inclusive or not — into key space: the stored-key encoding of a prefix and
// whether it is inclusive; a nil key is an open side, and none reports that
// nothing can satisfy the bound. A stored key is a bare prefix or the prefix
// followed by more bytes (further key values, a uniquifier, a locator), so an
// inclusive lower or exclusive upper bound is the bare prefix, and an
// exclusive lower or inclusive upper bound is the prefix + keySentinel, which
// the caller appends.
//
// Stored keys order by bytes only within a column's declared kind, so each
// bound value is first restated in its column's kind (value.CoerceKeyBound):
// k > 3.5 on an INT column seeks k >= 4, k = 3.5 nothing, k < 'x' everything.
// The range is exact — the rows value.Compare puts inside the bounds — unless
// a value before the last of a composite prefix has no single counterpart of
// its column's kind; the prefix is then cut there and the range is the
// tightest superset. The same-kind path (an index nested-loop join re-binds
// per outer row) converts nothing and allocates only the key.
func encodeBound(kinds []value.Kind, vals []value.Value, upper, incl bool) (key []byte, keyIncl, none bool) {
	if len(vals) == 0 {
		return nil, false, false
	}
	if len(vals) > len(kinds) {
		// More values than key columns: the columns are all there is to bound.
		vals, incl = vals[:len(kinds)], true
	}
	key = make([]byte, 0, 9*len(vals)+len(keySentinel))
	for i, v := range vals {
		last := i == len(vals)-1
		w, wIncl, fit := value.CoerceKeyBound(v, kinds[i], upper, incl || !last)
		switch fit {
		case value.BoundPoint:
			key = value.AppendStoredKeyValue(key, w)
			continue
		case value.BoundNearest:
			return value.AppendStoredKeyValue(key, w), wIncl, false
		}
		// Every value of the column, or none, satisfies this position: what is
		// left is the prefix before it, inclusive or exclusive — and with no
		// prefix, an open side or an empty range.
		if i == 0 {
			return nil, false, fit == value.BoundNone
		}
		return key, fit == value.BoundAll, false
	}
	return key, incl, false
}

// decodeKey fills out (one slot per logical column) from one record's key
// bytes, skipping key positions no logical column reads (a locator column the
// index key already holds). A trailing uniquifier or RID is never touched. It
// runs per row with no allocation (string columns aside).
func (l *Layout) decodeKey(key []byte, out []value.Value) error {
	off := 0
	for p, kind := range l.KeyKinds {
		if i := l.keyOutAt[p]; i >= 0 {
			v, n, err := value.DecodeKeyValue(key[off:], kind)
			if err != nil {
				return err
			}
			out[i] = v
			off += n
		} else {
			n, err := value.SkipKeyValue(key[off:], kind)
			if err != nil {
				return err
			}
			off += n
		}
	}
	return nil
}

// Cursor iterates the rows (or index entries) of a Range. It advances in
// exactly two ways: Next, the decoding row-at-a-time reference path, and
// NextSpans, the raw span fill the batch path decodes column-at-a-time.
type Cursor struct {
	// At most one of tree and heap is set; neither when err is, or when the
	// range is empty.
	tree   *btree.Iterator
	heap   *storage.HeapIterator
	layout *Layout
	// err is a pre-execution error (a failed page read while partitioning);
	// the cursor yields nothing and reports it.
	err error
	// payBuf is Next's reusable payload-decode buffer.
	payBuf []value.Value
}

// Err returns the first page-access error the cursor (or its underlying
// storage iterator) hit. NextSpans reports exhaustion on error, so batch
// fills must check Err when a fill comes up empty.
func (c *Cursor) Err() error {
	switch {
	case c.err != nil:
		return c.err
	case c.tree != nil:
		return c.tree.Err()
	case c.heap != nil:
		return c.heap.Err()
	default:
		return nil // an empty range
	}
}

// Next returns the next record's logical columns (see Layout), fully decoded;
// ok is false at the end: every table column for a table's rows,
// EntryColumnOrdinals for an index range.
func (c *Cursor) Next() (row []value.Value, ok bool, err error) {
	var key, payload [1][]byte
	if c.NextSpans(key[:], payload[:]) == 0 {
		return nil, false, c.Err()
	}
	row, err = c.layout.decodeRow(key[0], payload[0], &c.payBuf)
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// NextSpans fills payloads (and keys, when non-nil) with up to len(payloads)
// records' raw storage spans — the tree key bytes (nil for heaps) and the
// payload record, which a Layout maps to columns — and returns how many it
// filled, fewer only at exhaustion. Trees decode a leaf's records in place,
// a run of slots per call; heaps walk record by record.
// All spans point into page memory and stay valid until the table is next
// mutated, so a batch fill may collect a whole batch of them before decoding.
func (c *Cursor) NextSpans(keys, payloads [][]byte) int {
	if c.tree != nil {
		return c.tree.NextSpans(keys, payloads)
	}
	if c.heap == nil {
		return 0 // a pre-execution error, or an empty range
	}
	n := 0
	for n < len(payloads) {
		rec, _, ok := c.heap.NextRecord()
		if !ok {
			break
		}
		if keys != nil {
			keys[n] = nil
		}
		payloads[n] = rec
		n++
	}
	return n
}

// CreateIndex builds a nonclustered index over the table. keyCols define the
// sort order; includeCols are carried in the leaf entries so that queries
// touching only key+included columns never visit the base table (a covering
// index). Each entry's key ends in the base row's locator (its clustered tree
// key, or its RID), so clustered-key columns are always covered too.
func (c *Catalog) CreateIndex(name, tableName string, keyCols, includeCols []string, unique bool) (*Index, error) {
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	idx, err := t.indexFor(IndexDef{Name: name, Columns: keyCols, Include: includeCols, Unique: unique}, nil)
	if err != nil {
		return nil, err
	}
	if idx.tree, err = btree.New(c.pager); err != nil {
		return nil, err
	}
	rows, locs, err := t.scanStored()
	if err != nil {
		return nil, err
	}
	es, err := idx.entries(rows, locs)
	if err != nil {
		return nil, err
	}
	if err := idx.fill(es); err != nil {
		return nil, err
	}
	t.Secondary = append(t.Secondary, idx)
	t.initLayouts() // the new key columns join the coerced set
	return idx, nil
}

// indexFor resolves def against the table (and the indexes pending beside
// it) into an index with its layout but no tree yet.
func (t *Table) indexFor(def IndexDef, pending []*Index) (*Index, error) {
	for _, idx := range slices.Concat(t.Secondary, pending) {
		if strings.EqualFold(idx.Name, def.Name) {
			return nil, fmt.Errorf("catalog: index %q already exists on %q", def.Name, t.Name)
		}
	}
	keyOrds, err := t.ordinals(def.Columns)
	if err != nil {
		return nil, err
	}
	inclOrds, err := t.ordinals(def.Include)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		Name:            def.Name,
		Table:           t,
		KeyColumns:      keyOrds,
		IncludedColumns: inclOrds,
		Unique:          def.Unique,
	}
	idx.initLayout()
	return idx, nil
}

// Index is a clustered or nonclustered index.
type Index struct {
	Name            string
	Table           *Table
	KeyColumns      []int
	IncludedColumns []int
	Unique          bool
	Clustered       bool

	tree   *btree.BTree
	layout *Layout
}

// Tree exposes the underlying B+-tree (read-only use by statistics and tests).
func (ix *Index) Tree() *btree.BTree { return ix.tree }

// KeyColumnNames returns the names of the key columns in index order.
func (ix *Index) KeyColumnNames() []string {
	out := make([]string, len(ix.KeyColumns))
	for i, ord := range ix.KeyColumns {
		out[i] = ix.Table.Columns[ord].Name
	}
	return out
}

// Covers reports whether every requested column ordinal is available from the
// index entry itself (key, included or clustered-key columns).
func (ix *Index) Covers(ordinals []int) bool {
	avail := make(map[int]bool)
	for _, o := range ix.KeyColumns {
		avail[o] = true
	}
	for _, o := range ix.IncludedColumns {
		avail[o] = true
	}
	if ix.Table.Clustered != nil {
		for _, o := range ix.Table.Clustered.KeyColumns {
			avail[o] = true
		}
	}
	for _, o := range ordinals {
		if !avail[o] {
			return false
		}
	}
	return true
}

// EntryColumnOrdinals exposes the ordinals (into the base table schema) of
// the columns an index entry makes available, in Cursor.Next order: key
// columns, included columns, then clustered-key columns not already present.
func (ix *Index) EntryColumnOrdinals() []int { return ix.layout.Ords }

// entryKey builds the tree key of the entry for one (coerced) base row.
func (ix *Index) entryKey(row []value.Value, locator []byte) []byte {
	key := make([]byte, 0, 9*len(ix.KeyColumns)+len(locator))
	for _, ord := range ix.KeyColumns {
		key = value.AppendStoredKeyValue(key, row[ord])
	}
	return append(key, locator...)
}

// scanStored reads every stored row back with its locator, in storage order.
func (t *Table) scanStored() (rows [][]value.Value, locs [][]byte, err error) {
	var scratch []value.Value
	if t.Clustered != nil {
		// A clustered row's locator is its tree key, read as it is stored.
		cur := t.Scan()
		var key, payload [1][]byte
		for cur.NextSpans(key[:], payload[:]) == 1 {
			row, err := t.layout.decodeRow(key[0], payload[0], &scratch)
			if err != nil {
				return nil, nil, err
			}
			rows, locs = append(rows, row), append(locs, bytes.Clone(key[0]))
		}
		return rows, locs, cur.Err()
	}
	hit := t.heap.Scan()
	for {
		rec, rid, ok := hit.NextRecord()
		if !ok {
			break
		}
		row, err := t.layout.decodeRow(nil, rec, &scratch)
		if err != nil {
			return nil, nil, err
		}
		rows, locs = append(rows, row), append(locs, ridLocator(rid))
	}
	return rows, locs, hit.Err()
}

// entries is an index's bulk-load input: one entry per stored row, its key
// and payload encoded once into two arenas, and the order to load them in.
type entries struct {
	keys, payloads *keysort.Keys
	order          []int
}

// entries encodes the index's entries for stored rows, locs[i] being row i's
// locator, and orders them — sorted only if they do not already arrive in
// order, as they do when the key columns ascend with the clustered key (a
// c-table's depth-0 v along f). Rows stored before the index existed already
// hold every value in its declared kind where one exists (see
// Table.storedRow); a key-column value that has none — which the table took
// while the column was no key — is an error. It reads the rows and the index
// definition only, so it may run beside other work on the table.
func (ix *Index) entries(rows [][]value.Value, locs [][]byte) (*entries, error) {
	t := ix.Table
	width := 9 * len(ix.KeyColumns)
	if len(locs) > 0 {
		width += len(locs[0])
	}
	es := &entries{keys: keysort.New(len(rows), width), payloads: keysort.New(len(rows), 0)}
	var scratch []value.Value
	for i, row := range rows {
		for _, ord := range ix.KeyColumns {
			if _, _, err := value.CoerceKeyValue(row[ord], t.Columns[ord].Kind); err != nil {
				return nil, fmt.Errorf("catalog: index %q on column %q: %w", ix.Name, t.Columns[ord].Name, err)
			}
			es.keys.Buf = value.AppendStoredKeyValue(es.keys.Buf, row[ord])
		}
		es.keys.Buf = append(es.keys.Buf, locs[i]...)
		es.keys.End()
		es.payloads.Buf = ix.layout.encodePayload(es.payloads.Buf, row, &scratch)
		es.payloads.End() // a byte-string list, never sorted
	}
	// Locators are unique, so the keys are too and any sort is stable.
	es.order = es.keys.Order()
	if ix.Unique && len(ix.KeyColumns) > 0 {
		// Uniqueness is on the key columns: the encoded key minus its locator.
		for i := 1; i < len(es.order); i++ {
			a, b := es.keys.Key(es.order[i-1]), es.keys.Key(es.order[i])
			if bytes.Equal(a[:len(a)-len(locs[es.order[i-1]])], b[:len(b)-len(locs[es.order[i]])]) {
				return nil, fmt.Errorf("catalog: duplicate key in unique index %q", ix.Name)
			}
		}
	}
	return es, nil
}

// fill bulk-loads the empty index with its entries.
func (ix *Index) fill(es *entries) error {
	i := 0
	return ix.tree.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= len(es.order) {
			return nil, nil, false
		}
		p := es.order[i]
		i++
		return es.keys.Key(p), es.payloads.Key(p), true
	}, 0.95)
}
