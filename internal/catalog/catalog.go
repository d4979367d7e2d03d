// Package catalog manages the schema objects of a database instance —
// tables, columns, clustered and secondary indexes — together with their
// physical storage and basic optimizer statistics. Every table is a clustered
// B+-tree, and every secondary index is a B+-tree whose entries locate their
// base rows by clustered tree key; a table without a primary key is clustered
// on zero key columns, its rows numbered in insertion order by the
// uniquifier alone.
package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
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
	// workers is how many goroutines a bulk load or an index build encodes
	// and folds on (see SetWorkers).
	workers int
}

// New creates an empty catalog over the pager. Its bulk loads use
// GOMAXPROCS workers until SetWorkers says otherwise.
func New(pager *storage.Pager) *Catalog {
	return &Catalog{pager: pager, tables: make(map[string]*Table), workers: runtime.GOMAXPROCS(0)}
}

// SetWorkers sets how many goroutines a bulk load or an index build encodes
// and folds on: the engine's parallelism. The pages written do not depend on
// it. Call it before the catalog is shared.
func (c *Catalog) SetWorkers(n int) { c.workers = max(1, n) }

// Pager returns the pager shared by all tables in the catalog.
func (c *Catalog) Pager() *storage.Pager { return c.pager }

// CreateTable registers a new table, stored in a clustered B+-tree on the
// clusteredKey columns: rows are kept in key order, rows sharing a key in
// insertion order. With no key columns every row shares the empty key, so the
// rows are kept in insertion order.
func (c *Catalog) CreateTable(name string, cols []Column, clusteredKey []string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t, err := c.newTable(name, cols, clusteredKey)
	if err != nil {
		return nil, err
	}
	tree, err := btree.New(c.pager)
	if err != nil {
		return nil, err
	}
	t.Clustered.tree = tree
	tree.SetKeyNumber(t.Clustered.keyNumber())
	c.tables[key] = t
	return t, nil
}

// newTable checks a table's schema and returns the table it describes, with
// its layouts but no storage and in no catalog's list.
func (c *Catalog) newTable(name string, cols []Column, clusteredKey []string) (*Table, error) {
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
	ords, err := t.ordinals(clusteredKey)
	if err != nil {
		return nil, err
	}
	t.Clustered = &Index{Name: name + "_clustered", Table: t, KeyColumns: ords, Clustered: true}
	t.initLayouts()
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
// nodes and leaves) to the pager's freelist for reuse. Every tree is
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
	for _, ix := range append([]*Index{t.Clustered}, t.Secondary...) {
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
	// Definition is the defining SQL of a table that materializes a view,
	// empty for a base table. The catalog persists it in its meta and does
	// not interpret it.
	Definition string

	// Clustered is the clustered index, over no key columns for a table
	// created without a primary key.
	Clustered *Index
	// Secondary are the nonclustered indexes.
	Secondary []*Index

	Stats *TableStats

	catalog *Catalog
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

// IsClustered reports whether the table has a clustered key to seek and
// order by. A keyless table is stored in a clustered tree too, but over no
// key columns, so it answers false.
func (t *Table) IsClustered() bool { return len(t.Clustered.KeyColumns) > 0 }

// RowCount returns the current number of rows.
func (t *Table) RowCount() int64 { return t.Clustered.tree.Count() }

// DataPages returns the number of pages holding the table's rows: the leaf
// pages of the clustered index, counted from the level above them.
func (t *Table) DataPages() (int, error) { return t.Clustered.tree.LeafCount() }

// Record layout. Every column is stored exactly once. A clustered record's
// tree key is the stored-key encoding of its clustered-key columns, each as
// narrow as its declared kind allows (value.AppendStoredKeyValue) — plus a
// uniquifier, but only on a row whose key some stored row already carries —
// and its payload is a record (value.AppendRecord) of the remaining columns
// under their declared kinds. A secondary entry's key is its index-key
// columns, encoded the same way, followed by the base row's locator (its
// exact clustered tree key), and its payload is a record of the included
// columns found in neither. A keyless table's tree key is its uniquifier
// alone: empty for the first row, then 1, 2, … in insertion order.

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
	clusterKey := t.Clustered.KeyColumns
	var rest []int
	for _, ord := range all {
		if !slices.Contains(clusterKey, ord) {
			rest = append(rest, ord)
		}
	}
	t.layout = newLayout(t.Columns, all, clusterKey, rest)
	t.Clustered.layout = t.layout
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
	keyOrds := slices.Concat(ix.KeyColumns, t.Clustered.KeyColumns)
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
// keyless row's locator (a uniquifier too) — so prefix + keySentinel bounds
// all keys sharing the prefix from above.
var keySentinel = bytes.Repeat([]byte{0xFF}, uniquifierLen+1)

// uniquify returns the tree key of a new row whose clustered-key columns
// encode to bare, given pred, the greatest stored key <= bare+keySentinel
// when found says there is one: bare itself unless pred already carries it,
// else bare plus the next uniquifier, which sorts directly after pred. On a
// keyless table bare is empty, so the uniquifier numbers every row.
func (t *Table) uniquify(bare, pred []byte, found bool) ([]byte, error) {
	if !found || !bytes.HasPrefix(pred, bare) {
		return bare, nil
	}
	var n uint32
	if suffix := pred[len(bare):]; len(suffix) == uniquifierLen {
		n = binary.BigEndian.Uint32(suffix)
	}
	if n == 1<<32-1 {
		return nil, fmt.Errorf("catalog: table %q: more than 2^32-1 rows share one clustered key", t.Name)
	}
	return binary.BigEndian.AppendUint32(bare[:len(bare):len(bare)], n+1), nil
}

// storedRow validates a row for insertion and coerces every value to its
// column's declared kind where that loses nothing (value.CoerceKeyValue), so a
// row reads the same from key bytes, from a payload and from an index built
// later. Only a column that some index stores in key bytes is strictly typed:
// there a value that cannot be coerced refuses the row, elsewhere it is stored
// as given. convert, when not nil, first maps every non-NULL value of another
// kind than its column's (the engine's literal conversion). A value already
// of its column's kind is passed by one comparison of kinds (a float also has
// its zero checked: -0.0 is stored as +0.0). The input is copied only when a
// value changes.
func (t *Table) storedRow(row []value.Value, convert func(value.Value, value.Kind) value.Value) ([]value.Value, error) {
	if len(row) != len(t.Columns) {
		return nil, fmt.Errorf("catalog: table %q expects %d columns, got %d", t.Name, len(t.Columns), len(row))
	}
	out := row
	for ord, col := range t.Columns {
		v := row[ord]
		if v.Kind == col.Kind && (v.Kind != value.KindFloat || v.F != 0) {
			continue
		}
		changed := false
		if convert != nil && !v.IsNull() && v.Kind != col.Kind {
			v = convert(v, col.Kind)
			changed = v.Kind != row[ord].Kind // every conversion changes the kind
		}
		w, coerced, err := value.CoerceKeyValue(v, col.Kind)
		switch {
		case err == nil:
			v, changed = w, changed || coerced
		case slices.Contains(t.keyOrds, ord):
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
// index and the table statistics. A row whose key columns a unique index
// already holds is refused before anything is stored.
func (t *Table) Insert(row []value.Value) error {
	row, err := t.storedRow(row, nil)
	if err != nil {
		return err
	}
	for _, ix := range t.Secondary {
		if err := ix.refuseDuplicate(row); err != nil {
			return err
		}
	}
	var scratch []value.Value
	var locator []byte
	bare := t.bareKey(row)
	bound := append(bare[:len(bare):len(bare)], keySentinel...)
	payload := t.layout.encodePayload(nil, row, &scratch)
	err = t.Clustered.tree.InsertUnder(bound, payload, func(pred []byte) (key []byte, err error) {
		locator, err = t.uniquify(bare, pred, pred != nil)
		return locator, err
	})
	if err != nil {
		return err
	}
	for _, ix := range t.Secondary {
		if err := ix.tree.Insert(ix.entryKey(row, locator), ix.layout.encodePayload(nil, row, &scratch)); err != nil {
			return err
		}
	}
	t.Stats.observe(row)
	return nil
}

// Range is the one access-path descriptor of the storage layer: a key-prefix
// range, open or bounded, over a clustered tree or a secondary index. A range
// is a cheap value; Open starts a fresh cursor, so a range can be re-scanned
// and distinct ranges can be consumed by concurrent workers. Opening is lazy:
// a start at or below the leftmost leaf's fence, or an open one, begins at
// that leaf, any other start at the leaf the tree's model predicts or, on a
// tree with no model, by a descent from the root (btree.BTree.Seek), and
// that is all a serial scan ever pays. A bound scan moves its cursor from
// range to range with Cursor.Reseek, which begins a range forward of the last
// in the leaf where that one stopped. EstRows and Split serve the
// (single-threaded) parallel rewrite only: they name the range's leaves once,
// from the level above them (btree.BTree.LeafRange), paying reads of internal
// pages only, and keep them in the range.
type Range struct {
	tree   *btree.BTree // clustered tree or secondary index
	layout *Layout      // of the records the range yields

	// Encoded key bounds (see encodeBound); nil is open. empty marks a range a
	// bound rules out altogether (k = 3.5 on an INT key): it reads no page.
	start, stop []byte
	stopIncl    bool
	empty       bool

	// A split is restricted to a run of leafCount consecutive leaves from
	// leaf (only the first split of a range keeps start). It keeps no leaf
	// list, so a cached plan's morsels do not hold their range's.
	split     bool
	leaf      storage.PageID
	leafCount int

	// Partitioning state filled by size: the leaves in range, rows per leaf,
	// and a page error hit while walking, carried into execution so a
	// corrupt tree fails the query instead of silently scanning nothing.
	sized   bool
	leaves  []storage.PageID
	perLeaf int64
	err     error
}

// Range describes the rows whose clustered-key prefix lies in [lo, hi] by
// value.Compare, column by column. nil bounds are open and inclusivity applies
// per bound; bound values may be of any kind (see encodeBound). The fully open
// range is the full scan in clustered-key order (insertion order for a
// keyless table) and the only range a keyless table supports.
func (t *Table) Range(lo, hi []value.Value, loIncl, hiIncl bool) (Range, error) {
	return t.RangeIn(nil, lo, hi, loIncl, hiIncl)
}

// RangeIn is Range with the bounds' keys encoded into keys, the caller's
// buffers for the lower and the upper key, which it grows as needed: an
// operator that opens its range once per execution re-encodes it into
// buffers it owns. The range aliases the buffers until they are next used.
// nil keys allocates, as Range does.
func (t *Table) RangeIn(keys *[2][]byte, lo, hi []value.Value, loIncl, hiIncl bool) (Range, error) {
	if !t.IsClustered() && (lo != nil || hi != nil) {
		return Range{}, fmt.Errorf("catalog: table %q has no clustered key", t.Name)
	}
	return t.Clustered.RangeIn(keys, lo, hi, loIncl, hiIncl), nil
}

// Range describes the index entries whose key-column prefix lies in [lo, hi]
// (same bounds semantics as Table.Range).
func (ix *Index) Range(lo, hi []value.Value, loIncl, hiIncl bool) Range {
	return ix.RangeIn(nil, lo, hi, loIncl, hiIncl)
}

// RangeIn is Range with the keys encoded into the caller's buffers (see
// Table.RangeIn).
func (ix *Index) RangeIn(keys *[2][]byte, lo, hi []value.Value, loIncl, hiIncl bool) Range {
	var bufs [2][]byte
	if keys != nil {
		bufs = *keys
	}
	kinds := ix.layout.KeyKinds
	start, startIncl, noLo := encodeBound(bufs[0], kinds, lo, false, loIncl)
	stop, stopIncl, noHi := encodeBound(bufs[1], kinds, hi, true, hiIncl)
	if start != nil && !startIncl {
		start = append(start, keySentinel...)
	}
	if stop != nil && stopIncl {
		stop = append(stop, keySentinel...)
	}
	if keys != nil {
		for i, key := range [2][]byte{start, stop} {
			if key != nil { // an open side leaves its buffer be
				keys[i] = key
			}
		}
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
	case r.split:
		c.tree = r.tree.SeekLeaves(r.leaf, r.leafCount, r.start, r.stop, r.stopIncl)
	default:
		c.tree = r.tree.Seek(r.start, r.stop, r.stopIncl)
	}
	return c
}

// size walks the range once: the run of leaves it touches and the tree's
// average leaf fill. Both come from the level above the leaves, so sizing
// reads no leaf; a page error on the way is kept in err for the range's
// cursors to report.
func (r *Range) size() {
	if r.sized {
		return
	}
	r.sized = true
	var leaves int
	if !r.empty {
		r.leaves, r.err = r.tree.LeafRange(r.start, r.stop, r.stopIncl)
		if r.err == nil {
			leaves, r.err = r.tree.LeafCount()
		}
	}
	r.perLeaf = 1
	if leaves > 0 {
		r.perLeaf = max(1, r.tree.Count()/int64(leaves))
	}
}

// EstRows is the parallelization-threshold input: the exact row count for an
// open range (no page is read), leaf count x average leaf fill for a bounded
// one — only the order of magnitude matters there. On a tree with a leaf
// model the leaf count is the model's bound (btree.BTree.LeafSpan), so a
// selective seek stays serial without reading the root.
func (r *Range) EstRows() int64 {
	if !r.split && r.start == nil && r.stop == nil && !r.empty {
		return r.tree.Count()
	}
	if m := r.tree.Model(); m != nil && !r.split && !r.empty {
		if n, ok := r.tree.LeafSpan(r.start, r.stop); ok {
			return int64(n) * max(1, r.tree.Count()/int64(m.Leaves))
		}
	}
	r.size()
	return int64(len(r.leaves)) * r.perLeaf
}

// Split partitions the range into sub-ranges of roughly targetRows rows each
// (leaf granularity, so actual sizes vary with fill). Concatenating
// the sub-ranges' cursors in slice order reproduces the range's own cursor
// exactly. An empty range yields nil; a page error while walking yields the
// range itself, whose cursor reports it.
func (r *Range) Split(targetRows int64) []Range {
	r.size()
	if r.err != nil {
		return []Range{*r}
	}
	per := r.leavesPerSplit(targetRows)
	var out []Range
	for i := 0; i < len(r.leaves); i += per {
		n := min(per, len(r.leaves)-i)
		sub := *r
		sub.split, sub.leaf, sub.leafCount, sub.leaves = true, r.leaves[i], n, nil
		if i > 0 {
			sub.start = nil
		}
		out = append(out, sub)
	}
	return out
}

// Splits is the number of sub-ranges Split(targetRows) returns, counted from
// the leaves the range sized without making any of them.
func (r *Range) Splits(targetRows int64) int {
	r.size()
	if r.err != nil {
		return 1
	}
	per := r.leavesPerSplit(targetRows)
	return (len(r.leaves) + per - 1) / per
}

// leavesPerSplit is how many leaves each of Split's sub-ranges spans.
func (r *Range) leavesPerSplit(targetRows int64) int {
	return max(1, int(targetRows/r.perLeaf))
}

// Locator returns the base-row locator carried at the end of a secondary
// entry's tree key: the row's exact clustered tree key. The result aliases
// key.
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
// per outer row) converts nothing and allocates only the key — nothing, when
// dst, whose bytes the key overwrites, has room for it.
func encodeBound(dst []byte, kinds []value.Kind, vals []value.Value, upper, incl bool) (key []byte, keyIncl, none bool) {
	if len(vals) == 0 {
		return nil, false, false
	}
	if len(vals) > len(kinds) {
		// More values than key columns: the columns are all there is to bound.
		vals, incl = vals[:len(kinds)], true
	}
	key = dst[:0]
	if need := 9*len(vals) + len(keySentinel); cap(key) < need {
		key = make([]byte, 0, need)
	}
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
// index key already holds). A trailing uniquifier is never touched. It
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
// Reseek moves it to another range of the same tree.
type Cursor struct {
	// tree is nil when err is set, or when the range is empty.
	tree   *btree.Iterator
	layout *Layout
	// err is a pre-execution error (a failed page read while partitioning);
	// the cursor yields nothing and reports it.
	err error
	// payBuf is Next's reusable payload-decode buffer.
	payBuf []value.Value
}

// Reseek points the cursor at r, a range over the tree the cursor reads: a
// bound scan's next range. The tree iterator begins a range forward of its
// last one in the leaf where that one stopped (btree.Iterator.Reseek). A
// cursor on no tree, and an empty, split or failed range, open afresh.
func (c *Cursor) Reseek(r *Range) {
	if c.tree == nil || r.tree == nil || r.empty || r.split || r.err != nil {
		*c = *r.Open()
		return
	}
	c.tree.Reseek(r.start, r.stop, r.stopIncl)
}

// SeekStart says how a cursor was positioned on its range (btree.Start).
type SeekStart = btree.Start

// Start reports how positioning the cursor on its range read its tree: by a
// descent from the root, or from the leaf the tree's model predicts
// (btree.Iterator.Start).
func (c *Cursor) Start() SeekStart {
	if c.tree == nil {
		return SeekStart{}
	}
	return c.tree.Start()
}

// Err returns the first page-access error the cursor (or its underlying
// tree iterator) hit. NextSpans reports exhaustion on error, so batch
// fills must check Err when a fill comes up empty.
func (c *Cursor) Err() error {
	switch {
	case c.err != nil:
		return c.err
	case c.tree != nil:
		return c.tree.Err()
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
// records' raw storage spans — the tree key bytes and the payload record,
// which a Layout maps to columns — and returns how many it filled, fewer only
// at exhaustion. The tree decodes a leaf's records in place, a run of slots
// per call. All spans point into page memory and stay valid until the table
// is next mutated, so a batch fill may collect a whole batch of them before
// decoding.
func (c *Cursor) NextSpans(keys, payloads [][]byte) int {
	if c.tree == nil {
		return 0 // a pre-execution error, or an empty range
	}
	return c.tree.NextSpans(keys, payloads)
}

// CreateIndex builds a nonclustered index over the table. keyCols define the
// sort order; includeCols are carried in the leaf entries so that queries
// touching only key+included columns never visit the base table (a covering
// index). Each entry's key ends in the base row's locator (its clustered tree
// key), so clustered-key columns are always covered too.
func (c *Catalog) CreateIndex(name, tableName string, keyCols, includeCols []string, unique bool) (*Index, error) {
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	idx, err := t.indexFor(IndexDef{Name: name, Columns: keyCols, Include: includeCols, Unique: unique}, nil)
	if err != nil {
		return nil, err
	}
	rows, stored, err := t.scanStored()
	if err != nil {
		return nil, err
	}
	locs := keysort.New(len(stored), 0)
	for _, loc := range stored {
		locs.Buf = append(locs.Buf, loc...)
		locs.End()
	}
	es, err := idx.entries(rows, locs, c.workers)
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

// keyNumber is the number an entry key's leading column holds, the input of
// the tree's leaf model: nil for a keyless table's tree, whose keys lead with
// the uniquifier, and for a leading column of a kind with no number.
func (ix *Index) keyNumber() btree.KeyNumber {
	if len(ix.KeyColumns) == 0 {
		return nil
	}
	switch kind := ix.Table.Columns[ix.KeyColumns[0]].Kind; kind {
	case value.KindInt, value.KindDate, value.KindBool, value.KindFloat:
		return func(key []byte) (float64, bool) { return value.KeyNumber(key, kind) }
	}
	return nil
}

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
	for _, o := range ix.Table.Clustered.KeyColumns {
		avail[o] = true
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

// refuseDuplicate reports the duplicate-key error when ix is unique and
// already holds an entry with the (stored) row's key columns. As in entries,
// uniqueness is on the encoded key columns without the locator, so NULLs are
// equal; the encoding is prefix-free, so the entries with those columns are
// exactly the keys that begin with them.
func (ix *Index) refuseDuplicate(row []value.Value) error {
	if !ix.Unique || len(ix.KeyColumns) == 0 {
		return nil
	}
	prefix := ix.entryKey(row, nil)
	it := ix.tree.Seek(prefix, append(prefix, keySentinel...), true)
	if it.Next() {
		return fmt.Errorf("catalog: duplicate key in unique index %q", ix.Name)
	}
	return it.Err()
}

// scanStored reads every stored row back with its locator, its tree key as
// it is stored, in storage order.
func (t *Table) scanStored() (rows [][]value.Value, locs [][]byte, err error) {
	var scratch []value.Value
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
