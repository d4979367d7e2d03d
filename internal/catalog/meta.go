// Catalog meta persistence: the logical half of durability, and the one
// snapshot of recoverable state. The WAL's page images restore every B+-tree
// page byte for byte; this snapshot restores everything above them — table
// and index definitions, tree roots, leftmost leaves and their fences,
// heights, counts and leaf models, statistics, the defining SQL of each table that
// materializes a view, and the pager's freelist — so Open can
// reattach live Table/Index objects to the recovered pages. Record layouts are
// not persisted: they follow from the schema (Table.initLayouts), and
// metaVersion names the layout rules the pages were written under.
package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"oldelephant/internal/btree"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// metaVersion 9: each tree's anchors end in its leaf model (btree.Model: a
// flag, then the leaf count, the line's intercept and slope as float64 bits,
// its offset, window and mean hops), so a bounded start on a bulk-loaded
// tree reads the leaf the model predicts instead of descending from the
// root; a restored tree keeps the model its load fitted until a split or a
// delete drops it. A version 8 meta has no model field and would misparse,
// so it is refused too, though its pages are laid out as version 9's. From
// version 8 on, every table is a clustered tree, a table created without a
// primary key over zero key columns, so a table's clustered index follows its
// columns unconditionally. Version 7 metas flag each table as clustered or
// not and may list a heap's chain of slotted pages, which this build no
// longer reads. From version 7 on, each table carries its view definition
// (empty for a base table) and the pager's freelist follows the tables, so
// this snapshot is all the recoverable state there is. Version 6 metas lack
// both, and a directory written before version 7 wraps its meta in an
// envelope whose first byte is 1, so it reads as version 1. Each tree's
// leftmost leaf and that leaf's fence, the first separator above it, are
// stored beside its root, height and count (encodeTree), so a scan with an
// open start, or a seek from a key at or below the fence, begins at that leaf
// without a descent. A keyed table's pages are laid out as under versions 7,
// 6, 5 and 4 (whose metas lack the fence, and in version 4 the leftmost leaf,
// and would misparse): every column stored once — bare clustered keys with a
// uniquifier on duplicates only, key-stripped payloads, secondary entries
// located by clustered key — with each key column encoded under its declared
// kind (value.AppendStoredKeyValue), each payload a record under its declared
// kinds (value.AppendRecord: a tag bitmap, no field count, no kind bytes but
// on NULLs and stray kinds), and B+-tree nodes that state their kind and
// record geometry once in the page header (btree's node layout). Version 3
// pages frame every record with a marker, key length and 4-byte slot and
// every payload field with a kind byte; version 2 pages hold every numeric
// key as a 9- or 17-byte cross-kind word, version 1 pages also repeat key
// columns in the payload. Decoding any of them under these rules would
// return wrong rows or none, so RestoreMeta refuses them.
const metaVersion = 9

type metaWriter struct{ buf []byte }

func (w *metaWriter) u8(v byte)      { w.buf = append(w.buf, v) }
func (w *metaWriter) uv(v uint64)    { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *metaWriter) iv(v int64)     { w.buf = binary.AppendVarint(w.buf, v) }
func (w *metaWriter) str(s string)   { w.uv(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *metaWriter) bytes(b []byte) { w.uv(uint64(len(b))); w.buf = append(w.buf, b...) }
func (w *metaWriter) f64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}
func (w *metaWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *metaWriter) ords(o []int) {
	w.uv(uint64(len(o)))
	for _, v := range o {
		w.uv(uint64(v))
	}
}
func (w *metaWriter) pageIDs(ids []storage.PageID) {
	w.uv(uint64(len(ids)))
	for _, id := range ids {
		w.uv(uint64(id))
	}
}

type metaReader struct {
	buf []byte
	off int
	err error
}

func (r *metaReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("catalog: truncated meta at offset %d", r.off)
	}
}
func (r *metaReader) u8() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}
func (r *metaReader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}
func (r *metaReader) iv() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}
func (r *metaReader) bool() bool { return r.u8() != 0 }
func (r *metaReader) f64() float64 {
	if r.err != nil || len(r.buf)-r.off < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// count reads a length or an item count. Every byte string and every listed
// item takes at least one byte, so a count above the bytes left is corrupt:
// refusing it keeps a crafted meta from slicing out of range or allocating
// without bound.
func (r *metaReader) count() int {
	n := r.uv()
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("catalog: meta count %d at offset %d exceeds the %d bytes left", n, r.off, len(r.buf)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}
func (r *metaReader) bytes() []byte {
	n := r.count()
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}
func (r *metaReader) str() string { return string(r.bytes()) }
func (r *metaReader) ords() []int {
	n := r.count()
	out := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, int(r.uv()))
	}
	return out
}
func (r *metaReader) pageIDs() []storage.PageID {
	n := r.count()
	out := make([]storage.PageID, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, storage.PageID(r.uv()))
	}
	return out
}

// EncodeMeta serializes the catalog: every table's schema, view definition,
// trees and statistics, then the pager's freelist.
func (c *Catalog) EncodeMeta() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w := &metaWriter{}
	w.u8(metaVersion)
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	// Deterministic order keeps the replay-twice oracle byte-comparable.
	slices.SortFunc(tables, func(a, b *Table) int { return strings.Compare(a.Name, b.Name) })
	w.uv(uint64(len(tables)))
	for _, t := range tables {
		encodeTable(w, t)
	}
	w.pageIDs(c.pager.FreeList())
	return w.buf
}

func encodeTable(w *metaWriter, t *Table) {
	w.str(t.Name)
	w.str(t.Definition)
	w.uv(uint64(len(t.Columns)))
	for _, col := range t.Columns {
		w.str(col.Name)
		w.u8(byte(col.Kind))
	}
	w.str(t.Clustered.Name)
	w.ords(t.Clustered.KeyColumns)
	encodeTree(w, t.Clustered.tree)
	w.uv(uint64(len(t.Secondary)))
	for _, ix := range t.Secondary {
		w.str(ix.Name)
		w.ords(ix.KeyColumns)
		w.ords(ix.IncludedColumns)
		w.bool(ix.Unique)
		encodeTree(w, ix.tree)
	}
	encodeStats(w, t.Stats)
}

func encodeTree(w *metaWriter, tr *btree.BTree) {
	a := tr.Anchors()
	w.uv(uint64(a.Root))
	w.uv(uint64(a.First))
	w.bytes(a.Fence)
	w.uv(uint64(a.Height))
	w.iv(a.Count)
	w.bool(a.Model != nil)
	if m := a.Model; m != nil {
		w.uv(uint64(m.Leaves))
		w.f64(m.Intercept)
		w.f64(m.Slope)
		w.iv(int64(m.Offset))
		w.uv(uint64(m.Window))
		w.f64(m.Hops)
	}
}

func decodeTree(r *metaReader, pager *storage.Pager) *btree.BTree {
	var a btree.Anchors
	a.Root = storage.PageID(r.uv())
	a.First = storage.PageID(r.uv())
	if f := r.bytes(); len(f) > 0 { // nil for a one-leaf tree, which stores an empty one
		a.Fence = bytes.Clone(f)
	}
	a.Height = int(r.uv())
	a.Count = r.iv()
	if r.bool() {
		m := &btree.Model{Leaves: int(r.uv()), Intercept: r.f64(), Slope: r.f64(),
			Offset: int(r.iv()), Window: int(r.uv()), Hops: r.f64()}
		if r.err == nil && (!m.Valid() || a.Height < 2) {
			r.err = fmt.Errorf("catalog: meta holds a leaf model no tree of height %d could have: %+v", a.Height, *m)
		}
		a.Model = m
	}
	return btree.Open(pager, a)
}

func encodeStats(w *metaWriter, s *TableStats) {
	w.iv(s.RowCount)
	w.iv(s.DataBytes)
	w.uv(uint64(len(s.columns)))
	for i := range s.columns {
		cs := &s.columns[i]
		w.iv(cs.nulls)
		w.iv(max(cs.distinct.count(), cs.settled))
		w.bytes(value.EncodeTuple(nil, []value.Value{cs.min, cs.max}))
	}
}

func decodeStats(r *metaReader, cols []Column) (*TableStats, error) {
	s := NewTableStats(cols)
	s.RowCount = r.iv()
	s.DataBytes = r.iv()
	n := r.count()
	if r.err != nil {
		return nil, r.err
	}
	if n != len(cols) {
		return nil, fmt.Errorf("catalog: meta stats for %d columns, table has %d", n, len(cols))
	}
	for i := 0; i < n; i++ {
		cs := &s.columns[i]
		cs.nulls = r.iv()
		cs.settled = r.iv()
		mm := r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		vals, _, err := value.DecodeTuple(mm)
		if err != nil || len(vals) != 2 {
			return nil, fmt.Errorf("catalog: bad min/max tuple in meta: %v", err)
		}
		cs.min, cs.max = vals[0], vals[1]
	}
	return s, r.err
}

// RestoreMeta rebuilds the catalog's tables and the pager's freelist from an
// EncodeMeta snapshot, attaching the tables to the (already recovered) pages
// of the shared pager. A table the catalog already holds under the same name
// is restored into its existing Table value, so a *Table a caller obtained
// before (a statement's rollback restores the meta) keeps reading and
// writing the catalog's table; the other existing tables are discarded. A
// snapshot that fails to decode whole, trailing bytes included, changes
// nothing.
func (c *Catalog) RestoreMeta(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &metaReader{buf: data}
	if v := r.u8(); v != metaVersion {
		return fmt.Errorf("catalog: meta version %d not supported: this build reads and writes record layout version %d only", v, metaVersion)
	}
	ntables := r.count()
	tables := make(map[string]*Table, ntables)
	for i := 0; i < ntables && r.err == nil; i++ {
		t, err := c.decodeTable(r)
		if err != nil {
			return err
		}
		key := strings.ToLower(t.Name)
		if tables[key] != nil {
			return fmt.Errorf("catalog: meta names table %q twice", t.Name)
		}
		tables[key] = t
	}
	free := r.pageIDs()
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("catalog: %d trailing bytes after the meta", len(data)-r.off)
	}
	for key, t := range tables {
		if held := c.tables[key]; held != nil {
			held.adopt(t)
			tables[key] = held
		}
	}
	c.tables = tables
	c.pager.SetFreeList(free)
	return nil
}

// adopt makes t the table from describes (a freshly decoded one), indexes
// included, so the value callers hold stays the catalog's.
func (t *Table) adopt(from *Table) {
	*t = *from
	t.Clustered.Table = t
	for _, ix := range t.Secondary {
		ix.Table = t
	}
}

func (c *Catalog) decodeTable(r *metaReader) (*Table, error) {
	t := &Table{catalog: c}
	t.Name = r.str()
	t.Definition = r.str()
	ncols := r.count()
	for i := 0; i < ncols && r.err == nil; i++ {
		name := r.str()
		kind := value.Kind(r.u8())
		t.Columns = append(t.Columns, Column{Name: name, Kind: kind})
	}
	name := r.str()
	keyOrds := r.ords()
	tree := decodeTree(r, c.pager)
	t.Clustered = &Index{
		Name: name, Table: t, KeyColumns: keyOrds, Clustered: true, tree: tree,
	}
	nsec := r.count()
	for i := 0; i < nsec && r.err == nil; i++ {
		name := r.str()
		keyOrds := r.ords()
		inclOrds := r.ords()
		unique := r.bool()
		tree := decodeTree(r, c.pager)
		t.Secondary = append(t.Secondary, &Index{
			Name: name, Table: t, KeyColumns: keyOrds, IncludedColumns: inclOrds,
			Unique: unique, tree: tree,
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	stats, err := decodeStats(r, t.Columns)
	if err != nil {
		return nil, err
	}
	t.Stats = stats
	if err := t.checkOrdinals(); err != nil {
		return nil, err
	}
	for _, ix := range append([]*Index{t.Clustered}, t.Secondary...) {
		ix.tree.SetKeyNumber(ix.keyNumber())
	}
	t.initLayouts()
	return t, nil
}

// checkOrdinals rejects a restored table whose index definitions name columns
// the schema does not have, before layouts index Columns with them.
func (t *Table) checkOrdinals() error {
	check := func(ords []int) error {
		for _, o := range ords {
			if o < 0 || o >= len(t.Columns) {
				return fmt.Errorf("catalog: meta for table %q names column %d of %d", t.Name, o, len(t.Columns))
			}
		}
		return nil
	}
	if err := check(t.Clustered.KeyColumns); err != nil {
		return err
	}
	for _, ix := range t.Secondary {
		if err := check(ix.KeyColumns); err != nil {
			return err
		}
		if err := check(ix.IncludedColumns); err != nil {
			return err
		}
	}
	return nil
}
