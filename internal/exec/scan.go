package exec

import (
	"fmt"
	"slices"

	"oldelephant/internal/catalog"
	"oldelephant/internal/trace"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// projectedSchema builds the output schema for a table access that returns
// the given base-table column ordinals.
func projectedSchema(t *catalog.Table, cols []int) []ColumnInfo {
	out := make([]ColumnInfo, len(cols))
	for i, ord := range cols {
		out[i] = ColumnInfo{Name: t.Columns[ord].Name, Kind: t.Columns[ord].Kind}
	}
	return out
}

// projectRow picks the given positions out of a decoded row: base-table
// ordinals of a full row, or entry positions of a covered index entry.
func projectRow(row Row, cols []int) Row {
	out := make(Row, len(cols))
	for i, ord := range cols {
		out[i] = row[ord]
	}
	return out
}

// allOrdinals returns 0..n-1.
func allOrdinals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// initialBatchCap is the starting column capacity of a batch built row by
// row (an uncovered index seek's lookups), which grows by appending: a
// selective seek returning a handful of rows never allocates the ~50 KB of
// column buffers a DefaultBatchSize capacity would cost per query. Span
// fills size their buffers to the rows fetched instead (colFiller.fill).
const initialBatchCap = 32

// columnKinds returns the declared kinds of the given base-table ordinals —
// the typed-decoder selectors for a projected scan's output columns.
func columnKinds(t *catalog.Table, cols []int) []value.Kind {
	out := make([]value.Kind, len(cols))
	for i, ord := range cols {
		out[i] = t.Columns[ord].Kind
	}
	return out
}

// compressBatchCols run-encodes the marked output columns of a freshly
// filled batch. The planner marks a scan's sort-prefix columns (clustered-key
// or index-key prefix), where the storage order makes long runs likely — the
// paper's Figure-4 structure. An equality seek collapses its prefix column to
// a single run, which Compress turns into a Const vector; columns that turn
// out not to compress stay Flat, so the marking is a hint, never a
// correctness requirement.
func compressBatchCols(b *Batch, cols []int) {
	for _, c := range cols {
		// Dictionary-encoded columns are already compressed; flattening them
		// just to re-find runs would forfeit the encoding.
		if c >= 0 && c < len(b.Cols) && b.Cols[c].Encoding() == vector.Flat {
			b.Cols[c] = vector.Compress(b.Cols[c].Flat())
		}
	}
}

// TableScan is the one access path over a table's own rows: every row whose
// clustered-key prefix lies in [Lo, Hi], in clustered-key order. With both
// bounds open it is the full scan (EXPLAIN's SeqScan, and the only form a
// keyless table supports, in insertion order); with a bound it is the access
// path for sargable predicates on the clustered key (EXPLAIN's
// ClusteredSeek). A morsel of either is the same operator over a split of its
// range.
type TableScan struct {
	Table  *catalog.Table
	Lo, Hi []value.Value // prefix bounds; nil = open
	LoIncl bool
	HiIncl bool
	Cols   []int // base-table ordinals to produce
	// EncodeCols lists output positions to run-encode in produced batches
	// (the clustered-key prefix, set by the planner; an equality seek makes
	// its leading column a Const vector).
	EncodeCols []int

	// part is the sub-range a split scans; nil on the operator the planner
	// built, which opens its whole range lazily. Morsels are made when a
	// parallel operator opens, so a cached plan keeps no split and no leaf
	// list.
	part *catalog.Range
	// keys are the buffers Open encodes the bounds into, kept across
	// executions of a cached plan (catalog.Table.RangeIn).
	keys [2][]byte

	cur    *catalog.Cursor
	schema []ColumnInfo
	fill   *colFiller
	counts seekCounts // how the last Open positioned the range
}

// NewSeqScan builds a full scan of the table producing cols (nil = all).
func NewSeqScan(t *catalog.Table, cols []int) *TableScan {
	if cols == nil {
		cols = allOrdinals(len(t.Columns))
	}
	return &TableScan{
		Table: t, Cols: cols, schema: projectedSchema(t, cols),
		fill: newColFiller(columnKinds(t, cols), t.Layout(), cols),
	}
}

// NewClusteredSeek builds a clustered-index range scan: a TableScan bounded
// to [lo, hi] (nil = open).
func NewClusteredSeek(t *catalog.Table, lo, hi []value.Value, loIncl, hiIncl bool, cols []int) (*TableScan, error) {
	if !t.IsClustered() {
		return nil, fmt.Errorf("exec: table %q has no clustered key", t.Name)
	}
	s := NewSeqScan(t, cols)
	s.Lo, s.Hi, s.LoIncl, s.HiIncl = lo, hi, loIncl, hiIncl
	return s, nil
}

// Bounded reports whether the scan is a clustered seek rather than a full scan.
func (s *TableScan) Bounded() bool { return s.Lo != nil || s.Hi != nil }

// TraceName names the span after the access path EXPLAIN shows.
func (s *TableScan) TraceName() string {
	if s.Bounded() {
		return fmt.Sprintf("ClusteredSeek(%s)", s.Table.Name)
	}
	return fmt.Sprintf("SeqScan(%s)", s.Table.Name)
}

// Reseek implements boundScan.
func (s *TableScan) Reseek(lo, hi []value.Value) (catalog.SeekStart, error) {
	s.Lo, s.Hi = lo, hi
	rng, err := s.Table.Range(lo, hi, s.LoIncl, s.HiIncl)
	if err != nil {
		return catalog.SeekStart{}, err
	}
	return reseek(&s.cur, &rng), nil
}

// reseek moves *cur to rng — from where its last range stopped, when it is
// open (catalog.Cursor.Reseek) — and reports how it was positioned.
func reseek(cur **catalog.Cursor, rng *catalog.Range) catalog.SeekStart {
	if *cur == nil {
		*cur = rng.Open()
	} else {
		(*cur).Reseek(rng)
	}
	return (*cur).Start()
}

// seekCounts are a bound access path's EXPLAIN ANALYZE counters: the ranges
// it positioned, those among them positioned by a descent from the root and
// those from the leaf the tree's model predicts, and the leaves the predicted
// starts walked past.
type seekCounts struct{ seeks, descents, predicted, hops int64 }

func (c *seekCounts) add(st catalog.SeekStart) {
	c.seeks++
	if st.Descended {
		c.descents++
	}
	if st.Predicted {
		c.predicted++
	}
	c.hops += int64(st.Hops)
}

func (c *seekCounts) attrs(sp *trace.Span) {
	sp.SetAttr("seeks", c.seeks)
	sp.SetAttr("descents", c.descents)
	sp.SetAttr("predicted", c.predicted)
	sp.SetAttr("hops", c.hops)
}

// Schema implements Operator.
func (s *TableScan) Schema() []ColumnInfo { return s.schema }

// Open implements Operator. The filler takes its buffers at the first
// NextBatch, and Close returns them.
func (s *TableScan) Open() error {
	rng := s.part
	if rng == nil {
		whole, err := s.Table.RangeIn(&s.keys, s.Lo, s.Hi, s.LoIncl, s.HiIncl)
		if err != nil {
			return err
		}
		rng = &whole
	}
	s.cur = rng.Open()
	s.counts = seekCounts{}
	s.counts.add(s.cur.Start())
	return nil
}

// TraceAttrs implements SpanAnnotator: a clustered seek reports how it was
// positioned, as a band join's inner seeks do (IndexNestedLoopJoin).
func (s *TableScan) TraceAttrs(sp *trace.Span) {
	if s.Bounded() {
		s.counts.attrs(sp)
	}
}

// Next implements Operator: the row-at-a-time reference path, a full decode
// plus projection that deliberately shares nothing with the batch fill's
// projected decoder it is differentially tested against.
func (s *TableScan) Next() (Row, bool, error) {
	if s.cur == nil {
		return nil, false, errNotOpen("TableScan")
	}
	row, ok, err := s.cur.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return projectRow(row, s.Cols), true, nil
}

// NextBatch implements Operator.
func (s *TableScan) NextBatch() (*Batch, bool, error) {
	if s.cur == nil {
		return nil, false, errNotOpen("TableScan")
	}
	b, err := s.fill.fill(s.cur, s.EncodeCols)
	if err != nil || b == nil {
		return nil, false, err
	}
	return b, true, nil
}

// Close implements Operator: the filler's buffers go back to the pool, so a
// closed scan — a cached plan's, a finished morsel — holds none.
func (s *TableScan) Close() error {
	s.cur = nil
	s.fill.release()
	return nil
}

// NumScanRows implements Morseler: the table's row count for a full scan, the
// estimated rows in the key range for a seek — a selective seek below the
// parallelization threshold stays serial.
func (s *TableScan) NumScanRows() int64 {
	rng, err := s.Table.Range(s.Lo, s.Hi, s.LoIncl, s.HiIncl)
	if err != nil {
		return 0
	}
	return rng.EstRows()
}

// Morsels implements Morseler: the range splits into leaf-page runs of
// roughly targetRows rows, every morsel this same operator over one
// run. A morsel's filler recycles its column buffers across the morsel's
// batches unless retain says its consumer keeps them (ParallelMerge). A
// range the scan cannot form is one morsel over the whole scan, whose Open
// reports the error.
func (s *TableScan) Morsels(targetRows int, retain bool) ([]Operator, bool) {
	morsel := func(part *catalog.Range) Operator {
		m := *s
		m.part, m.cur, m.fill = part, nil, s.fill.morsel(!retain)
		return &m
	}
	rng, err := s.Table.Range(s.Lo, s.Hi, s.LoIncl, s.HiIncl)
	if err != nil {
		return []Operator{morsel(nil)}, false
	}
	parts := rng.Split(int64(targetRows))
	out := make([]Operator, len(parts))
	for i := range parts {
		out[i] = morsel(&parts[i])
	}
	return out, len(out) >= 2
}

// NumMorsels implements Morseler: the range's split count, one for a range
// the scan cannot form.
func (s *TableScan) NumMorsels(targetRows int) int {
	rng, err := s.Table.Range(s.Lo, s.Hi, s.LoIncl, s.HiIncl)
	if err != nil {
		return 1
	}
	return rng.Splits(int64(targetRows))
}

// IndexSeek scans a secondary index for entries whose key prefix lies in a
// constant range. When the index covers the requested columns the base table
// is never touched; otherwise each entry is resolved to its base row through
// the locator its key ends in (the row's exact clustered tree key), which
// costs one extra lookup per row.
// Like TableScan, a morsel of an IndexSeek is an IndexSeek over a split.
type IndexSeek struct {
	Index  *catalog.Index
	Lo, Hi []value.Value
	LoIncl bool
	HiIncl bool
	Cols   []int
	// EncodeCols lists output positions to run-encode in produced batches
	// (the index-key prefix; an equality seek makes its leading column a
	// Const vector).
	EncodeCols []int

	part *catalog.Range // see TableScan.part
	keys [2][]byte      // see TableScan.keys

	cur    *catalog.Cursor
	counts seekCounts // see TableScan.counts
	schema []ColumnInfo
	// A covered seek decodes Cols[i] from the entry's logical column
	// entryPos[i] through fill.
	covered  bool
	fill     *colFiller
	entryPos []int
}

// NewIndexSeek builds a secondary-index range scan producing the given base
// table columns.
func NewIndexSeek(ix *catalog.Index, lo, hi []value.Value, loIncl, hiIncl bool, cols []int) (*IndexSeek, error) {
	t := ix.Table
	if cols == nil {
		cols = allOrdinals(len(t.Columns))
	}
	s := &IndexSeek{
		Index: ix, Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl, Cols: cols,
		schema: projectedSchema(t, cols), covered: ix.Covers(cols),
	}
	if s.covered {
		entryOrds := ix.EntryColumnOrdinals()
		s.entryPos = make([]int, len(cols))
		for i, ord := range cols {
			s.entryPos[i] = slices.Index(entryOrds, ord)
		}
		s.fill = newColFiller(columnKinds(t, cols), ix.Layout(), s.entryPos)
	}
	return s, nil
}

// Covered reports whether the seek is answered from the index alone.
func (s *IndexSeek) Covered() bool { return s.covered }

// TraceName names the span after the access path EXPLAIN shows.
func (s *IndexSeek) TraceName() string {
	return fmt.Sprintf("IndexSeek(%s.%s)", s.Index.Table.Name, s.Index.Name)
}

// Reseek implements boundScan.
func (s *IndexSeek) Reseek(lo, hi []value.Value) (catalog.SeekStart, error) {
	s.Lo, s.Hi = lo, hi
	rng := s.Index.Range(lo, hi, s.LoIncl, s.HiIncl)
	return reseek(&s.cur, &rng), nil
}

// Schema implements Operator.
func (s *IndexSeek) Schema() []ColumnInfo { return s.schema }

// Open implements Operator.
func (s *IndexSeek) Open() error {
	rng := s.part
	if rng == nil {
		whole := s.Index.RangeIn(&s.keys, s.Lo, s.Hi, s.LoIncl, s.HiIncl)
		rng = &whole
	}
	s.cur = rng.Open()
	s.counts = seekCounts{}
	s.counts.add(s.cur.Start())
	return nil
}

// TraceAttrs implements SpanAnnotator (see TableScan.TraceAttrs).
func (s *IndexSeek) TraceAttrs(sp *trace.Span) { s.counts.attrs(sp) }

// Next implements Operator: one decoded entry, projected (covered), or the
// base row its locator names.
func (s *IndexSeek) Next() (Row, bool, error) {
	if s.cur == nil {
		return nil, false, errNotOpen("IndexSeek")
	}
	if s.covered {
		entry, ok, err := s.cur.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		return projectRow(entry, s.entryPos), true, nil
	}
	var key, payload [1][]byte
	if s.cur.NextSpans(key[:], payload[:]) == 0 {
		return nil, false, s.cur.Err()
	}
	locator, err := s.Index.Locator(key[0])
	if err != nil {
		return nil, false, err
	}
	base, err := s.Index.Table.Lookup(locator)
	if err != nil {
		return nil, false, err
	}
	return projectRow(base, s.Cols), true, nil
}

// NextBatch implements Operator. Covered seeks decode projected columns
// straight from entry payload spans; uncovered ones transpose the row path's
// base-row lookups into a fresh batch.
func (s *IndexSeek) NextBatch() (*Batch, bool, error) {
	if s.cur == nil {
		return nil, false, errNotOpen("IndexSeek")
	}
	if !s.covered {
		b, ok, err := nextBatchFromRows(s, initialBatchCap)
		if ok {
			compressBatchCols(b, s.EncodeCols)
		}
		return b, ok, err
	}
	b, err := s.fill.fill(s.cur, s.EncodeCols)
	if err != nil || b == nil {
		return nil, false, err
	}
	return b, true, nil
}

// Close implements Operator; a covered seek returns its filler's buffers
// (see TableScan.Close).
func (s *IndexSeek) Close() error {
	s.cur = nil
	if s.covered {
		s.fill.release()
	}
	return nil
}

// NumScanRows implements Morseler: estimated entries in the seek's key range.
func (s *IndexSeek) NumScanRows() int64 {
	rng := s.Index.Range(s.Lo, s.Hi, s.LoIncl, s.HiIncl)
	return rng.EstRows()
}

// Morsels implements Morseler: the seek's leaf range splits into entry runs,
// every morsel an IndexSeek over one run that resolves base rows on its own
// (covered seeks never touch the base table; uncovered ones do their
// clustered lookups through the shared, read-only tree), so selective
// secondary-index range scans parallelize too. A covered morsel's filler
// recycles as TableScan.Morsels describes.
func (s *IndexSeek) Morsels(targetRows int, retain bool) ([]Operator, bool) {
	rng := s.Index.Range(s.Lo, s.Hi, s.LoIncl, s.HiIncl)
	parts := rng.Split(int64(targetRows))
	out := make([]Operator, len(parts))
	for i := range parts {
		m := *s
		m.part, m.cur = &parts[i], nil
		if s.covered {
			m.fill = s.fill.morsel(!retain)
		}
		out[i] = &m
	}
	return out, len(out) >= 2
}

// NumMorsels implements Morseler: the seek's range's split count.
func (s *IndexSeek) NumMorsels(targetRows int) int {
	rng := s.Index.Range(s.Lo, s.Hi, s.LoIncl, s.HiIncl)
	return rng.Splits(int64(targetRows))
}
