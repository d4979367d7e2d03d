package catalog

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"oldelephant/internal/btree"
	"oldelephant/internal/keysort"
	"oldelephant/internal/value"
)

// IndexDef names a secondary index for Table.BulkLoad to create once the rows
// are stored: the same index CreateIndex makes, built from the rows in hand.
type IndexDef struct {
	Name             string
	Columns, Include []string
	Unique           bool
}

// BulkLoad loads many rows into an empty table at once, then creates the
// indexes defs names. The rows are put in clustered-key order — sorted only
// if they do not arrive in it, rows sharing a key in input order, as repeated
// Inserts would keep them, so a keyless table's rows are never sorted — and
// bulk-loaded bottom-up,
// which is dramatically faster than repeated inserts. Every secondary index,
// existing or new, is built the same way from the stored rows in hand; the
// table is never read back. The statistics are folded beside the encoding
// into a fresh set that replaces the table's once every tree is built. No row
// is stored unless every row is acceptable, and a table that already holds
// rows is refused untouched: a bulk load replaces a tree's root, so it would
// orphan the rows already there.
func (t *Table) BulkLoad(rows [][]value.Value, defs ...IndexDef) error {
	return t.BulkLoadWith(nil, rows, defs...)
}

// BulkLoadWith is BulkLoad with convert applied first to every non-NULL value
// that is not of its column's kind, in the one pass that validates and
// coerces each row (see storedRow). The caller's rows are never modified. It
// is PrepareLoad's work followed by WriteLoad's.
func (t *Table) BulkLoadWith(convert func(value.Value, value.Kind) value.Value, rows [][]value.Value, defs ...IndexDef) error {
	if err := t.refuseRows(); err != nil {
		return err
	}
	l, err := t.prepare(convert, rows, defs)
	if err != nil {
		return err
	}
	return t.WriteLoad(l)
}

// Load is a bulk load worked out in full and not yet written: every row
// stored, every refusal found, the statistics folded, and the leaves of
// every tree laid out as page images. Only the page writes are left, for
// WriteLoad.
type Load struct {
	table     *Table // the schema the load was worked out for
	clustered *btree.Leaves
	// indexes are the table's secondary indexes, existing ones first, each
	// filled with leaves[i]; added are the ones the load creates.
	indexes, added []*Index
	leaves         []*btree.Leaves
	stats          *TableStats
	written        bool
}

// PrepareLoad works out a bulk load of rows, and of the indexes defs names,
// into a table CreateTable(name, cols, clusteredKey) would make, without the
// table: it reads nothing of the catalog's and writes no page, so loads of
// several new tables can be worked out at once, and written one after another
// in the order that decides their page ids. convert is as for BulkLoadWith.
func (c *Catalog) PrepareLoad(name string, cols []Column, clusteredKey []string, convert func(value.Value, value.Kind) value.Value,
	rows [][]value.Value, defs ...IndexDef) (*Load, error) {
	t, err := c.newTable(name, cols, clusteredKey)
	if err != nil {
		return nil, err
	}
	return t.prepare(convert, rows, defs)
}

// WriteLoad writes a load into the table, exactly as BulkLoad would have
// written it, and gives the table the load's statistics and indexes. The
// load must have been worked out for the table, or by PrepareLoad for a
// table of the same schema; a table that holds rows, or a load already
// written, is refused untouched.
func (t *Table) WriteLoad(l *Load) error {
	if l.written {
		return fmt.Errorf("catalog: bulk load into table %q was already written", t.Name)
	}
	if err := t.refuseRows(); err != nil {
		return err
	}
	if l.table != t {
		if err := t.sameSchema(l.table); err != nil {
			return err
		}
		for _, ix := range l.added {
			ix.Table = t
		}
	}
	l.written = true
	if err := t.Clustered.tree.WriteLeaves(l.clustered); err != nil {
		return err
	}
	// The indexes' trees are filled one after another, existing ones first,
	// so their pages are allocated in the order CREATE INDEX would.
	for i, ix := range l.indexes {
		if err := ix.fill(l.leaves[i]); err != nil {
			return err
		}
	}
	t.Stats = l.stats
	if len(l.added) > 0 {
		t.Secondary = append(t.Secondary, l.added...)
		t.initLayouts() // the new key columns join the coerced set
	}
	return nil
}

// refuseRows refuses a bulk load into a table that already holds rows.
func (t *Table) refuseRows() error {
	if n := t.RowCount(); n > 0 {
		return fmt.Errorf("catalog: bulk load into table %q, which already holds %d rows", t.Name, n)
	}
	return nil
}

// sameSchema refuses a load worked out for the schema of o unless the table
// has the same columns, the same clustered key and, like a new table, no
// secondary index.
func (t *Table) sameSchema(o *Table) error {
	if !slices.Equal(t.Columns, o.Columns) || !slices.Equal(t.Clustered.KeyColumns, o.Clustered.KeyColumns) ||
		len(t.Secondary) > 0 || len(o.Secondary) > 0 {
		return fmt.Errorf("catalog: bulk load worked out for table %q does not fit table %q", o.Name, t.Name)
	}
	return nil
}

// tooLarge refuses a row whose record, or tree entry, holds n bytes.
func (t *Table) tooLarge(n int) error {
	return fmt.Errorf("catalog: table %q: a row of %d bytes does not fit in a page", t.Name, n)
}

// prepare works a bulk load of rows into the (empty) table out. One parallel
// pass over the rows, a chunk at a time, stores each row, encodes its bare
// clustered key and its payload, and folds the chunk into its goroutine's
// statistics. Then the keys are put in order and made unique, and the
// clustered tree's leaves are laid out while every index's entries are
// encoded, ordered and laid out beside them; the goroutines' statistics are
// merged. Whatever can refuse the load — a row that cannot be stored, an
// entry too large for a page, a duplicate in a unique index — is found here,
// before any page is allocated.
func (t *Table) prepare(convert func(value.Value, value.Kind) value.Value, rows [][]value.Value, defs []IndexDef) (*Load, error) {
	added := make([]*Index, 0, len(defs))
	for _, def := range defs {
		ix, err := t.indexFor(def, added)
		if err != nil {
			return nil, err
		}
		added = append(added, ix)
	}
	workers := t.catalog.workers
	n := len(rows)
	keyParts := make([]*keysort.Keys, chunksOf(n))
	payloads := make(spans, chunksOf(n))
	l := &Load{table: t, indexes: slices.Concat(t.Secondary, added), added: added}
	// A row storedRow changes is a copy (a swap); the others are stored as
	// they came.
	type swap struct {
		i   int
		row []value.Value
	}
	swaps := make([][]swap, chunksOf(n))
	folds := make([]*TableStats, chunkWorkers(n, workers))
	for w := range folds {
		folds[w] = NewTableStats(t.Columns)
	}
	keyWidth := 9 * len(t.Clustered.KeyColumns)
	err := inChunks(n, workers, func(w, c, lo, hi int) error {
		keys, chunk := keysort.New(hi-lo, keyWidth), keysort.New(hi-lo, 0)
		var scratch []value.Value
		for i := lo; i < hi; i++ {
			row, err := t.storedRow(rows[i], convert)
			if err != nil {
				return err
			}
			if &row[0] != &rows[i][0] {
				swaps[c] = append(swaps[c], swap{i, row})
			}
			for _, ord := range t.Clustered.KeyColumns {
				keys.Buf = value.AppendStoredKeyValue(keys.Buf, row[ord])
			}
			keys.End()
			chunk.Buf = t.layout.encodePayload(chunk.Buf, row, &scratch)
			chunk.End()
			if i == lo { // size the arena after the first record, with a quarter to spare
				chunk.Grow(hi-lo-1, len(chunk.Buf)+len(chunk.Buf)/4)
			}
		}
		if len(swaps[c]) == 0 {
			folds[w].fold(rows[lo:hi]) // while the rows are in cache
		} else {
			stored := slices.Clone(rows[lo:hi])
			for _, s := range swaps[c] {
				stored[s.i-lo] = s.row
			}
			folds[w].fold(stored)
		}
		keyParts[c], payloads[c] = keys, chunk
		return nil
	})
	if err != nil {
		return nil, err
	}
	stored := rows
	for _, ss := range swaps {
		for _, s := range ss {
			if &stored[0] == &rows[0] {
				stored = slices.Clone(rows) // the caller's rows are never modified
			}
			stored[s.i] = s.row
		}
	}
	keys := keysort.Join(keyParts)
	order := keys.OrderOn(workers)
	locs, err := t.locators(keys, order)
	if err != nil {
		return nil, err
	}
	for i, p := range order {
		if n := len(locs.Key(i)) + len(payloads.at(p)); n > btree.MaxEntry {
			return nil, t.tooLarge(n)
		}
	}
	sorted := stored // the stored rows in key order
	if !slices.IsSorted(order) {
		sorted = make([][]value.Value, n)
		for i, p := range order {
			sorted[i] = stored[p]
		}
	}
	// Every index's entries are worked out beside the clustered tree's
	// leaves; the first index's error, in index order, refuses the load.
	l.leaves = make([]*btree.Leaves, len(l.indexes))
	errs := make([]error, len(l.indexes))
	var built sync.WaitGroup
	for i, ix := range l.indexes {
		built.Add(1)
		go func() {
			defer built.Done()
			l.leaves[i], errs[i] = ix.entries(sorted, locs, workers)
		}()
	}
	l.clustered, err = btree.LayOut(n, func(i int) ([]byte, []byte) { return locs.Key(i), payloads.at(order[i]) }, loadFill, workers)
	built.Wait()
	if err = cmp.Or(append(errs, err)...); err != nil {
		return nil, err
	}
	l.stats = folds[0]
	for _, f := range folds[1:] {
		l.stats.merge(f)
	}
	l.stats.rebound(sorted) // observe would have seen the rows in key order
	l.stats.settle()
	return l, nil
}

// locators returns the tree keys of rows whose bare clustered keys are keys,
// in the given (key) order: each bare key, made unique as Insert would make
// it. When the keys arrive in order and none repeats, they are their own
// locators.
func (t *Table) locators(keys *keysort.Keys, order []int) (*keysort.Keys, error) {
	same := true
	for i, p := range order {
		if p != i || i > 0 && bytes.HasPrefix(keys.Key(i-1), keys.Key(i)) {
			same = false
			break
		}
	}
	if same {
		return keys, nil
	}
	locs := keysort.New(len(order), len(keys.Buf)/max(1, len(order))+1)
	for i, p := range order {
		loc := keys.Key(p)
		if i > 0 {
			// Sorted input makes the previous row the predecessor Insert would find.
			var err error
			if loc, err = t.uniquify(loc, locs.Key(i-1), true); err != nil {
				return nil, err
			}
		}
		locs.Buf = append(locs.Buf, loc...)
		locs.End()
	}
	return locs, nil
}

// loadChunk is how many rows one task of a bulk load's parallel passes
// takes: few enough that a task's rows stay in cache while it stores,
// encodes and folds them, enough that handing tasks out costs nothing. The
// chunks, and so everything a load computes, are the same for any number of
// workers.
const loadChunk = 1024

func chunksOf(n int) int { return (n + loadChunk - 1) / loadChunk }

// chunkWorkers is how many goroutines inChunks runs n rows on.
func chunkWorkers(n, workers int) int { return max(1, min(workers, chunksOf(n))) }

// inChunks runs task over the chunks of rows [0, n) on chunkWorkers(n,
// workers) goroutines, w naming the goroutine and c the chunk of rows [lo,
// hi), and returns the error of the first chunk that failed: the one a serial
// pass would have met first.
func inChunks(n, workers int, task func(w, c, lo, hi int) error) error {
	errs := make([]error, chunksOf(n))
	var next atomic.Int64
	run := func(w int) {
		for c := int(next.Add(1) - 1); c < len(errs); c = int(next.Add(1) - 1) {
			lo := c * loadChunk
			errs[c] = task(w, c, lo, min(lo+loadChunk, n))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < chunkWorkers(n, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// spans is a list of byte strings built a chunk of loadChunk at a time.
type spans []*keysort.Keys

// at returns string i.
func (s spans) at(i int) []byte { return s[i/loadChunk].Key(i % loadChunk) }

// loadFill is how full a bulk load packs its trees' nodes.
const loadFill = 0.95

// entries encodes the index's entries for stored rows, in locator order,
// locs.Key(i) being row i's locator, in chunks on up to workers goroutines,
// puts them in key order and lays the index's leaves out. An entry's key is
// its key columns, then its locator; as the rows come in locator order, a
// stable sort on the key columns alone puts the entries in key order (the
// encoding is prefix-free), and it is skipped when the key columns already
// ascend with the rows, as a c-table's depth-0 v does along f. Rows stored
// before the index existed already hold every value in its declared kind
// where one exists (see Table.storedRow); a key-column value that has none —
// which the table took while the column was no key — is an error. It reads
// the rows and the index definition only, so it may run beside other work on
// the table.
func (ix *Index) entries(rows [][]value.Value, locs *keysort.Keys, workers int) (*btree.Leaves, error) {
	t := ix.Table
	columns := make([]*keysort.Keys, chunksOf(len(rows)))
	payloads := make(spans, len(columns))
	err := inChunks(len(rows), workers, func(_, c, lo, hi int) error {
		keys, chunk := keysort.New(hi-lo, 9*len(ix.KeyColumns)), keysort.New(hi-lo, 0)
		var scratch []value.Value
		for i := lo; i < hi; i++ {
			row := rows[i]
			for _, ord := range ix.KeyColumns {
				if kind := t.Columns[ord].Kind; row[ord].Kind != kind {
					if _, _, err := value.CoerceKeyValue(row[ord], kind); err != nil {
						return fmt.Errorf("catalog: index %q on column %q: %w", ix.Name, t.Columns[ord].Name, err)
					}
				}
				keys.Buf = value.AppendStoredKeyValue(keys.Buf, row[ord])
			}
			keys.End()
			chunk.Buf = ix.layout.encodePayload(chunk.Buf, row, &scratch)
			chunk.End()
			if n := len(keys.Key(i-lo)) + len(locs.Key(i)) + len(chunk.Key(i-lo)); n > btree.MaxEntry {
				return fmt.Errorf("catalog: index %q: an entry of %d bytes does not fit in a page", ix.Name, n)
			}
		}
		columns[c], payloads[c] = keys, chunk
		return nil
	})
	if err != nil {
		return nil, err
	}
	keys := keysort.Join(columns)
	order := keys.OrderOn(workers)
	if ix.Unique && len(ix.KeyColumns) > 0 {
		// Uniqueness is on the key columns, NULLs included.
		for i := 1; i < len(order); i++ {
			if bytes.Equal(keys.Key(order[i-1]), keys.Key(order[i])) {
				return nil, fmt.Errorf("catalog: duplicate key in unique index %q", ix.Name)
			}
		}
	}
	es := gather(len(order), workers, func(i int, key, val []byte) ([]byte, []byte) {
		p := order[i]
		return append(append(key, keys.Key(p)...), locs.Key(p)...), append(val, payloads.at(p)...)
	})
	return btree.LayOut(len(order), es.at, loadFill, workers)
}

// pairs is a list of tree entries, keys and payloads, built a chunk of
// loadChunk at a time.
type pairs struct{ keys, payloads spans }

func (p pairs) at(i int) ([]byte, []byte) { return p.keys.at(i), p.payloads.at(i) }

// gather builds n entries in order, a chunk at a time on up to workers
// goroutines: put(i, key, val) appends entry i's key to key and its payload
// to val.
func gather(n, workers int, put func(i int, key, val []byte) ([]byte, []byte)) pairs {
	out := pairs{keys: make(spans, chunksOf(n)), payloads: make(spans, chunksOf(n))}
	_ = inChunks(n, workers, func(_, c, lo, hi int) error {
		keys, payloads := keysort.New(0, 0), keysort.New(0, 0)
		for i := lo; i < hi; i++ {
			keys.Buf, payloads.Buf = put(i, keys.Buf, payloads.Buf)
			keys.End()
			payloads.End()
			if i == lo { // size the arenas after the first entry, with a quarter to spare
				keys.Grow(hi-lo-1, len(keys.Buf)+len(keys.Buf)/4+1)
				payloads.Grow(hi-lo-1, len(payloads.Buf)+len(payloads.Buf)/4)
			}
		}
		out.keys[c], out.payloads[c] = keys, payloads
		return nil
	})
	return out
}

// fill writes the laid-out leaves into the empty index, first creating its
// tree when a new index has none yet.
func (ix *Index) fill(leaves *btree.Leaves) error {
	if ix.tree == nil {
		var err error
		if ix.tree, err = btree.New(ix.Table.catalog.pager); err != nil {
			return err
		}
		ix.tree.SetKeyNumber(ix.keyNumber())
	}
	return ix.tree.WriteLeaves(leaves)
}
