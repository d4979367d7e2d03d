// Package catalog manages the schema objects of a database instance —
// tables, columns, clustered and secondary indexes — together with their
// physical storage (heap files or B+-trees) and basic optimizer statistics.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"oldelephant/internal/btree"
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
	mu       sync.RWMutex
	pager    *storage.Pager
	tables   map[string]*Table
	overhead int
}

// New creates an empty catalog. overhead is the per-tuple storage overhead in
// bytes used by all tables and index leaves (negative selects the default).
func New(pager *storage.Pager, overhead int) *Catalog {
	if overhead < 0 {
		overhead = storage.DefaultTupleOverhead
	}
	return &Catalog{pager: pager, tables: make(map[string]*Table), overhead: overhead}
}

// Pager returns the pager shared by all tables in the catalog.
func (c *Catalog) Pager() *storage.Pager { return c.pager }

// TupleOverhead returns the per-tuple overhead in bytes configured for this catalog.
func (c *Catalog) TupleOverhead() int { return c.overhead }

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
		t.Clustered = &Index{
			Name:       name + "_clustered",
			Table:      t,
			KeyColumns: ords,
			Clustered:  true,
			tree:       btree.New(c.pager, c.overhead),
		}
	} else {
		t.heap = storage.NewHeapFile(c.pager, c.overhead)
	}
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
// nodes, leaves, heap pages) to the pager's freelist for reuse.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	free := func(ids []storage.PageID) {
		for _, id := range ids {
			c.pager.FreePage(id)
		}
	}
	if t.Clustered != nil {
		if ids, err := t.Clustered.tree.AllPages(); err == nil {
			free(ids)
		}
	} else if t.heap != nil {
		free(t.heap.PageIDs())
	}
	for _, ix := range t.Secondary {
		if ids, err := ix.tree.AllPages(); err == nil {
			free(ids)
		}
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

	catalog    *Catalog
	heap       *storage.HeapFile
	uniquifier int64
	// keyDirty records that some inserted row held a clustered-key value that
	// does not round-trip exactly through the order-preserving key encoding
	// (kind mismatch against the declared column, or negative-zero float;
	// integers of any magnitude round-trip via the typed int-suffix word).
	// While clean, projected scans may recover key
	// columns from the B+-tree key bytes instead of decoding the payload; one
	// dirty insert disables that for the table's lifetime.
	keyDirty bool
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
// of the clustered index, or heap pages).
func (t *Table) DataPages() int {
	if t.Clustered != nil {
		return t.Clustered.tree.NumLeafPages()
	}
	return t.heap.NumPages()
}

// clusteredKeyOf extracts the clustered-key values of a row and appends the
// uniquifier used to keep duplicate keys distinct in the tree.
func (t *Table) clusteredKey(row []value.Value, uniq int64) []byte {
	vals := make([]value.Value, 0, len(t.Clustered.KeyColumns)+1)
	for _, ord := range t.Clustered.KeyColumns {
		v := row[ord]
		if !t.keyDirty && !value.KeyValueRecoverable(v, t.Columns[ord].Kind) {
			t.keyDirty = true
		}
		vals = append(vals, v)
	}
	vals = append(vals, value.NewInt(uniq))
	return value.EncodeKey(nil, vals)
}

// KeyRecoverable reports whether the clustered-key columns of every stored
// row can be decoded exactly from the B+-tree key bytes (see keyDirty).
func (t *Table) KeyRecoverable() bool {
	return t.Clustered != nil && !t.keyDirty
}

// KeyPrefixPositions maps base-table column ordinals to their positions in
// the clustered key. It returns (positions, true) only when key-byte recovery
// is safe for every requested ordinal: the table is clustered, no stored row
// has an unrecoverable key value, and each ordinal is a clustered-key column.
// Projected scans whose column set passes this test never touch the payload.
func (t *Table) KeyPrefixPositions(cols []int) ([]int, bool) {
	if !t.KeyRecoverable() {
		return nil, false
	}
	pos := make([]int, len(cols))
	for i, ord := range cols {
		pos[i] = -1
		for p, kc := range t.Clustered.KeyColumns {
			if kc == ord {
				pos[i] = p
				break
			}
		}
		if pos[i] < 0 {
			return nil, false
		}
	}
	return pos, true
}

// Insert adds one row, maintaining the clustered storage, every secondary
// index and the table statistics.
func (t *Table) Insert(row []value.Value) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("catalog: table %q expects %d columns, got %d", t.Name, len(t.Columns), len(row))
	}
	var rid storage.RID
	var uniq int64
	if t.Clustered != nil {
		uniq = t.uniquifier
		t.uniquifier++
		key := t.clusteredKey(row, uniq)
		if err := t.Clustered.tree.Insert(key, value.EncodeTuple(nil, row)); err != nil {
			return err
		}
	} else {
		var err error
		rid, err = t.heap.Insert(row)
		if err != nil {
			return err
		}
	}
	for _, idx := range t.Secondary {
		if err := idx.insertEntry(row, rid, uniq); err != nil {
			return err
		}
	}
	t.Stats.observe(row)
	return nil
}

// BulkLoad loads many rows at once. For clustered tables the rows are sorted
// by the clustered key and bulk-loaded bottom-up, which is dramatically
// faster than repeated inserts; secondary indexes are rebuilt the same way.
func (t *Table) BulkLoad(rows [][]value.Value) error {
	for _, row := range rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("catalog: table %q expects %d columns, got %d", t.Name, len(t.Columns), len(row))
		}
	}
	if t.Clustered == nil {
		for _, row := range rows {
			if err := t.Insert(row); err != nil {
				return err
			}
		}
		return nil
	}
	type keyed struct {
		key []byte
		row []value.Value
	}
	items := make([]keyed, len(rows))
	for i, row := range rows {
		uniq := t.uniquifier
		t.uniquifier++
		items[i] = keyed{key: t.clusteredKey(row, uniq), row: row}
	}
	sort.Slice(items, func(i, j int) bool { return lessBytes(items[i].key, items[j].key) })
	i := 0
	err := t.Clustered.tree.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= len(items) {
			return nil, nil, false
		}
		it := items[i]
		i++
		return it.key, value.EncodeTuple(nil, it.row), true
	}, 0.95)
	if err != nil {
		return err
	}
	for _, row := range rows {
		t.Stats.observe(row)
	}
	for _, idx := range t.Secondary {
		if err := idx.rebuild(); err != nil {
			return err
		}
	}
	return nil
}

func lessBytes(a, b []byte) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Range is the one access-path descriptor of the storage layer: a key-prefix
// range, open or bounded, over a clustered tree, a secondary index or a heap
// (open only). A range is a cheap value; Open starts a fresh cursor, so a
// range can be re-scanned and distinct ranges can be consumed by concurrent
// workers. Opening is lazy — a root-to-leaf descent at most — and that is all
// a serial scan ever pays. EstRows and Split serve the (single-threaded)
// parallel rewrite only: they walk the range's leaf chain, charged page
// reads, once and memoize it in the range.
type Range struct {
	tree *btree.BTree      // clustered tree or secondary index; nil for a heap
	heap *storage.HeapFile // set iff tree is nil

	// Encoded key bounds (see encodeRange); nil is open.
	start, stop []byte
	stopIncl    bool

	// A split is restricted to a run of consecutive leaves (only the first
	// split of a range keeps start) or of heap pages.
	split               bool
	leaves              []storage.PageID
	pageFrom, pageCount int

	// Partitioning state filled by size: rows per leaf or heap page, and a
	// page error hit while walking, carried into execution so a corrupt tree
	// fails the query instead of silently scanning nothing.
	sized   bool
	perUnit int64
	err     error
}

// Range describes the rows whose clustered-key prefix lies in [lo, hi]. nil
// bounds are open and inclusivity applies per bound; the fully open range is
// the full scan (clustered-key order, or insertion order for a heap) and the
// only range a heap supports.
func (t *Table) Range(lo, hi []value.Value, loIncl, hiIncl bool) (Range, error) {
	if t.Clustered != nil {
		return t.Clustered.Range(lo, hi, loIncl, hiIncl), nil
	}
	if lo != nil || hi != nil {
		return Range{}, fmt.Errorf("catalog: table %q has no clustered index", t.Name)
	}
	return Range{heap: t.heap, pageCount: t.heap.NumPages()}, nil
}

// Range describes the index entries whose key-column prefix lies in [lo, hi]
// (same bounds semantics as Table.Range).
func (ix *Index) Range(lo, hi []value.Value, loIncl, hiIncl bool) Range {
	r := Range{tree: ix.tree}
	r.start, r.stop, r.stopIncl = encodeRange(lo, hi, loIncl, hiIncl)
	return r
}

// Scan opens a cursor over all rows of the table.
func (t *Table) Scan() *Cursor {
	r, _ := t.Range(nil, nil, false, false) // the open range always exists
	return r.Open()
}

// Open returns a fresh cursor over the range.
func (r *Range) Open() *Cursor {
	switch {
	case r.err != nil:
		return &Cursor{err: r.err}
	case r.tree == nil:
		return &Cursor{heap: r.heap.ScanPages(r.pageFrom, r.pageCount)}
	case r.split:
		return &Cursor{tree: r.tree.SeekLeaves(r.leaves[0], len(r.leaves), r.start, r.stop, r.stopIncl)}
	default:
		return &Cursor{tree: r.tree.Seek(r.start, r.stop, r.stopIncl)}
	}
}

// size walks the range once: the run of leaves it touches and the tree's
// average leaf fill (or the heap's average page fill).
func (r *Range) size() {
	if r.sized {
		return
	}
	r.sized = true
	units := r.pageCount
	if r.tree != nil {
		r.leaves, r.err = r.tree.LeafRange(r.start, r.stop, r.stopIncl)
		all, _ := r.tree.LeafPages() // on error there is no average: one row per leaf
		units = len(all)
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
	if !r.split && r.start == nil && r.stop == nil {
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
		sub.split = true
		if r.tree == nil {
			sub.pageFrom, sub.pageCount = r.pageFrom+i, n
		} else {
			sub.leaves = r.leaves[i : i+n]
			if i > 0 {
				sub.start = nil
			}
		}
		out = append(out, sub)
	}
	return out
}

// LookupRID fetches a heap row by RID (heap tables only).
func (t *Table) LookupRID(rid storage.RID) ([]value.Value, error) {
	if t.heap == nil {
		return nil, fmt.Errorf("catalog: table %q is not a heap", t.Name)
	}
	return t.heap.Get(rid)
}

// encodeRange converts value-space bounds into key-space bounds. Because
// every stored key has a uniquifier (or locator) suffix, prefix bounds are
// made inclusive/exclusive by appending sentinel bytes:
//   - inclusive lower bound: the bare prefix (sorts before any full key)
//   - exclusive lower bound: prefix + 0xFF... (sorts after all keys with it)
//   - inclusive upper bound: prefix + 0xFF...
//   - exclusive upper bound: the bare prefix
func encodeRange(lo, hi []value.Value, loIncl, hiIncl bool) (start, stop []byte, stopIncl bool) {
	if lo != nil {
		start = value.EncodeKey(nil, lo)
		if !loIncl {
			start = append(start, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
		}
	}
	if hi != nil {
		stop = value.EncodeKey(nil, hi)
		if hiIncl {
			stop = append(stop, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
		}
		stopIncl = hiIncl
	}
	return start, stop, stopIncl
}

// KeyPrefixDecoder decodes a projected set of clustered-key columns straight
// from B+-tree key bytes, skipping unrequested key positions. Built once per
// scan by NewKeyPrefixDecoder; Decode then runs per row with no allocation
// (string columns aside).
type KeyPrefixDecoder struct {
	// kinds[p] is the declared column kind at key position p.
	kinds []value.Kind
	// outAt[p] is the output index for key position p, or -1 to skip it.
	outAt []int
}

// NewKeyPrefixDecoder returns a decoder recovering the given base-table
// ordinals from key bytes, or (nil, false) when key recovery is unsafe for
// this column set (see KeyPrefixPositions).
func (t *Table) NewKeyPrefixDecoder(cols []int) (*KeyPrefixDecoder, bool) {
	pos, ok := t.KeyPrefixPositions(cols)
	if !ok {
		return nil, false
	}
	maxPos := 0
	for _, p := range pos {
		if p > maxPos {
			maxPos = p
		}
	}
	d := &KeyPrefixDecoder{
		kinds: make([]value.Kind, maxPos+1),
		outAt: make([]int, maxPos+1),
	}
	for p := range d.outAt {
		d.outAt[p] = -1
		d.kinds[p] = t.Columns[t.Clustered.KeyColumns[p]].Kind
	}
	for i, p := range pos {
		d.outAt[p] = i
	}
	return d, true
}

// Decode fills out (len = number of projected columns) from one row's key
// bytes. The trailing uniquifier and any key positions past the last
// projected one are never touched.
func (d *KeyPrefixDecoder) Decode(key []byte, out []value.Value) error {
	off := 0
	for p := range d.outAt {
		if i := d.outAt[p]; i >= 0 {
			v, n, err := value.DecodeKeyValue(key[off:], d.kinds[p])
			if err != nil {
				return err
			}
			out[i] = v
			off += n
		} else {
			n, err := value.SkipKeyValue(key[off:])
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
	tree *btree.Iterator
	heap *storage.HeapIterator
	// err is a pre-execution error (a failed page read while partitioning);
	// the cursor yields nothing and reports it.
	err error
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
	default:
		return c.heap.Err()
	}
}

// Next returns the next row, fully decoded; ok is false at the end. For an
// index range the row is the entry: its columns in EntryColumnOrdinals order,
// then the RID pair on heap tables (see Index.EntryRID).
func (c *Cursor) Next() (row []value.Value, ok bool, err error) {
	var payload [1][]byte
	if c.NextSpans(nil, payload[:]) == 0 {
		return nil, false, c.Err()
	}
	row, _, err = value.DecodeTuple(payload[0])
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// NextSpans fills payloads (and keys, when non-nil) with up to len(payloads)
// rows' raw storage spans — the tree key bytes (nil for heaps) and the encoded
// tuple — and returns how many it filled, fewer only at exhaustion. Trees
// drain the cached leaf parses chunk-at-a-time; heaps walk record by record.
// All spans alias stable page memory, so a batch fill may collect a whole
// batch of them before decoding.
func (c *Cursor) NextSpans(keys, payloads [][]byte) int {
	if c.err != nil {
		return 0
	}
	if c.tree != nil {
		return c.tree.NextSpans(keys, payloads)
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
// index). The locator (clustered key or RID) is always appended.
func (c *Catalog) CreateIndex(name, tableName string, keyCols, includeCols []string, unique bool) (*Index, error) {
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	for _, idx := range t.Secondary {
		if strings.EqualFold(idx.Name, name) {
			return nil, fmt.Errorf("catalog: index %q already exists on %q", name, tableName)
		}
	}
	keyOrds, err := t.ordinals(keyCols)
	if err != nil {
		return nil, err
	}
	inclOrds, err := t.ordinals(includeCols)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		Name:            name,
		Table:           t,
		KeyColumns:      keyOrds,
		IncludedColumns: inclOrds,
		Unique:          unique,
		tree:            btree.New(c.pager, c.overhead),
	}
	if err := idx.rebuild(); err != nil {
		return nil, err
	}
	t.Secondary = append(t.Secondary, idx)
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

	tree *btree.BTree
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

// entryColumns returns the ordinals stored in a leaf entry payload, in the
// order they are stored: key columns, included columns, then locator columns
// (clustered key columns not already present).
func (ix *Index) entryColumns() []int {
	out := append([]int(nil), ix.KeyColumns...)
	seen := make(map[int]bool)
	for _, o := range out {
		seen[o] = true
	}
	for _, o := range ix.IncludedColumns {
		if !seen[o] {
			out = append(out, o)
			seen[o] = true
		}
	}
	if ix.Table.Clustered != nil {
		for _, o := range ix.Table.Clustered.KeyColumns {
			if !seen[o] {
				out = append(out, o)
				seen[o] = true
			}
		}
	}
	return out
}

// EntryColumnOrdinals exposes the ordinals (into the base table schema) of
// the columns materialized in each index entry, in storage order.
func (ix *Index) EntryColumnOrdinals() []int { return ix.entryColumns() }

// insertEntry adds the index entry for one base-table row.
func (ix *Index) insertEntry(row []value.Value, rid storage.RID, uniq int64) error {
	key := ix.encodeEntryKey(row, rid, uniq)
	payload := ix.encodeEntryPayload(row, rid)
	return ix.tree.Insert(key, payload)
}

func (ix *Index) encodeEntryKey(row []value.Value, rid storage.RID, uniq int64) []byte {
	vals := make([]value.Value, 0, len(ix.KeyColumns)+3)
	for _, ord := range ix.KeyColumns {
		vals = append(vals, row[ord])
	}
	// Disambiguate duplicates with the locator so keys are unique and scans
	// within equal key values are deterministic.
	if ix.Table.Clustered != nil {
		vals = append(vals, value.NewInt(uniq))
	} else {
		vals = append(vals, value.NewInt(int64(rid.Page)), value.NewInt(int64(rid.Slot)))
	}
	return value.EncodeKey(nil, vals)
}

func (ix *Index) encodeEntryPayload(row []value.Value, rid storage.RID) []byte {
	cols := ix.entryColumns()
	vals := make([]value.Value, 0, len(cols)+2)
	for _, ord := range cols {
		vals = append(vals, row[ord])
	}
	if ix.Table.Clustered == nil {
		vals = append(vals, value.NewInt(int64(rid.Page)), value.NewInt(int64(rid.Slot)))
	}
	return value.EncodeTuple(nil, vals)
}

// rebuild reconstructs the index from the base table using a bulk load.
func (ix *Index) rebuild() error {
	type item struct {
		key     []byte
		payload []byte
	}
	var items []item
	it := ix.Table.Scan()
	var uniq int64
	for {
		row, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		// RIDs are not tracked by the generic row iterator; heap locators are
		// only meaningful for heap tables, where we re-scan with RIDs below.
		items = append(items, item{
			key:     ix.encodeEntryKey(row, storage.RID{}, uniq),
			payload: ix.encodeEntryPayload(row, storage.RID{}),
		})
		uniq++
	}
	if ix.Table.heap != nil {
		// Redo with correct RIDs for heap tables.
		items = items[:0]
		hit := ix.Table.heap.Scan()
		for {
			row, rid, ok, err := hit.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			items = append(items, item{
				key:     ix.encodeEntryKey(row, rid, 0),
				payload: ix.encodeEntryPayload(row, rid),
			})
		}
	}
	sort.Slice(items, func(i, j int) bool { return lessBytes(items[i].key, items[j].key) })
	if ix.Unique {
		for i := 1; i < len(items); i++ {
			// Uniqueness is on the key columns only; compare the key-column
			// prefix by re-encoding without the locator. A cheaper practical
			// check: decode payloads and compare key column values.
			a, _, err := value.DecodeTuple(items[i-1].payload)
			if err != nil {
				return err
			}
			b, _, err := value.DecodeTuple(items[i].payload)
			if err != nil {
				return err
			}
			same := true
			for k := range ix.KeyColumns {
				if value.Compare(a[k], b[k]) != 0 {
					same = false
					break
				}
			}
			if same && len(ix.KeyColumns) > 0 {
				return fmt.Errorf("catalog: duplicate key in unique index %q", ix.Name)
			}
		}
	}
	i := 0
	return ix.tree.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= len(items) {
			return nil, nil, false
		}
		it := items[i]
		i++
		return it.key, it.payload, true
	}, 0.95)
}

// EntryRID extracts the base-row locator from a decoded entry of an index
// over a heap table: the RID pair stored after the entry columns.
func (ix *Index) EntryRID(entry []value.Value) (storage.RID, error) {
	n := len(entry) - 2
	if ix.Table.heap == nil || n < len(ix.KeyColumns) {
		return storage.RID{}, fmt.Errorf("catalog: index %q entry carries no RID", ix.Name)
	}
	return storage.RID{Page: storage.PageID(entry[n].Int()), Slot: uint16(entry[n+1].Int())}, nil
}
