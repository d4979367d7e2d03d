package catalog

import (
	"math"
	"math/bits"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// TableStats holds per-table and per-column statistics used for cardinality
// estimation by the planner and for reporting.
type TableStats struct {
	RowCount int64
	// DataBytes is the total encoded size of all observed rows, excluding
	// per-tuple overhead. It lets the planner estimate page counts without
	// touching storage.
	DataBytes int64
	columns   []columnStats
}

// EstimatedDataPages estimates how many pages the rows occupy with the
// per-tuple overhead, assuming ~95% page fill.
func (s *TableStats) EstimatedDataPages() float64 {
	bytes := float64(s.DataBytes) + float64(s.RowCount)*storage.TupleOverhead
	pages := bytes / (0.95 * 8192)
	if pages < 1 {
		return 1
	}
	return pages
}

// columnStats are one column's statistics. A column has one lifecycle
// whichever way its table came to be: a bulk load folds a full sketch, since
// the count must be exact, and then settles it (TableStats.settle), which is
// exactly what a restored meta snapshot, after recovery or a statement's
// rollback, leaves behind. INSERTs fold into a live sketch that starts empty.
type columnStats struct {
	distinct distinctSketch
	min, max value.Value
	nulls    int64
	// settled is the distinct count a load or a meta snapshot left; the
	// sketch behind it is not kept. The count reported is the maximum of it
	// and the live sketch's, so INSERTs of new values move a settled column's
	// count only once they alone outnumber it: like PostgreSQL's n_distinct,
	// the count is not maintained between loads.
	settled int64
	// last is the non-NULL value observed last (NULL before the first). The
	// same value again changes nothing — the sketch and the bounds already
	// hold it — so observe skips it; sorted and clustered columns repeat a lot.
	last value.Value
	// tied is set once bound has kept one of two values that compare equal
	// but are not identical: then the bounds depend on the order the values
	// came in (see TableStats.rebound).
	tied bool
}

// distinctSketch counts the distinct values of a column in bounded memory:
// exactly, as a set of value hashes, up to sketchExactMax of them, and from
// then on with a HyperLogLog of 2^sketchBits one-byte registers (standard
// error 1.04/sqrt(2^sketchBits), 1.6 %). Key-like columns of any size cost 4
// KiB each instead of a set entry per row; the low-cardinality columns whose
// counts decide plans (dates, flags, group-by keys) stay exact. A sketch
// lives while a bulk load folds it and, from its first value on, under the
// INSERTs into a column; the zero sketch holds no memory, and a settled
// column keeps only its count.
type distinctSketch struct {
	// exact is the set: an open-addressing table of hashes, linear probing,
	// at most three quarters full, 0 marking an empty slot. nil once regs
	// took over.
	exact []uint64
	n     int  // hashes in the set, the hash 0 included
	zero  bool // the set holds the hash 0, which no slot can
	regs  []uint8
}

const (
	sketchExactMax = 4096
	sketchBits     = 12
	sketchMinSlots = 8
)

func (d *distinctSketch) add(h uint64) {
	if d.regs != nil {
		d.addReg(h)
		return
	}
	if d.insert(h) && d.n > sketchExactMax {
		d.toRegs()
	}
}

// toRegs moves the set's hashes into registers, which count from then on.
func (d *distinctSketch) toRegs() {
	d.regs = make([]uint8, 1<<sketchBits)
	for _, h := range d.exact {
		if h != 0 {
			d.addReg(h)
		}
	}
	if d.zero {
		d.addReg(0)
	}
	d.exact = nil
}

// insert adds h to the exact set and reports whether it was new.
func (d *distinctSketch) insert(h uint64) bool {
	if h == 0 {
		if d.zero {
			return false
		}
		d.zero = true
		d.n++
		return true
	}
	if d.exact == nil {
		d.exact = make([]uint64, sketchMinSlots)
	}
	if !setInsert(d.exact, h) {
		return false
	}
	d.n++
	if d.n*4 > len(d.exact)*3 {
		grown := make([]uint64, 2*len(d.exact))
		for _, h := range d.exact {
			if h != 0 {
				setInsert(grown, h)
			}
		}
		d.exact = grown
	}
	return true
}

// setInsert puts the non-zero hash h into the open-addressing table set (a
// power of two long, never full) and reports whether it was absent.
func setInsert(set []uint64, h uint64) bool {
	mask := uint64(len(set) - 1)
	// Fibonacci hashing spreads FNV's weak low bits over the table.
	for i := (h * 0x9e3779b97f4a7c15) >> 32 & mask; ; i = (i + 1) & mask {
		switch set[i] {
		case 0:
			set[i] = h
			return true
		case h:
			return false
		}
	}
}

// merge adds every hash o holds: its set, or its registers, which a sketch
// of the union takes the maximum of. A set that outgrows the exact limit
// becomes registers as it would have one hash at a time.
func (d *distinctSketch) merge(o *distinctSketch) {
	if o.regs == nil {
		for _, h := range o.exact {
			if h != 0 {
				d.add(h)
			}
		}
		if o.zero {
			d.add(0)
		}
		return
	}
	if d.regs == nil {
		d.toRegs()
		d.n = sketchExactMax + 1 // where a set stops counting
	}
	for i, r := range o.regs {
		d.regs[i] = max(d.regs[i], r)
	}
}

func (d *distinctSketch) addReg(h uint64) {
	// value.Hash is FNV-1a, whose high bits mix poorly for short inputs;
	// finish it (the 64-bit murmur finalizer) before splitting off the index.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	idx := h >> (64 - sketchBits)
	rank := uint8(bits.LeadingZeros64(h<<sketchBits|1<<(sketchBits-1))) + 1
	d.regs[idx] = max(d.regs[idx], rank)
}

func (d *distinctSketch) count() int64 {
	if d.regs == nil {
		return int64(d.n)
	}
	// Registers by rank: the harmonic sum over a few dozen exact terms.
	var hist [64 - sketchBits + 2]int32
	for _, r := range d.regs {
		hist[r]++
	}
	m := float64(len(d.regs))
	var sum float64
	for r, n := range hist {
		sum += math.Ldexp(float64(n), -r)
	}
	zeros := hist[0]
	est := 0.7213 / (1 + 1.079/m) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros)) // linear counting while registers are sparse
	}
	return int64(est + 0.5)
}

// NewTableStats creates empty statistics for the given columns.
func NewTableStats(cols []Column) *TableStats {
	s := &TableStats{columns: make([]columnStats, len(cols))}
	for i := range s.columns {
		s.columns[i].min = value.Null()
		s.columns[i].max = value.Null()
	}
	return s
}

// observe folds one row into the statistics.
func (s *TableStats) observe(row []value.Value) {
	s.RowCount++
	s.DataBytes += int64(value.RowSize(row))
	for i := range row {
		if i >= len(s.columns) {
			break
		}
		s.columns[i].observe(row[i])
	}
}

// fold folds rows, every one as wide as the table, into the statistics: a
// column at a time, which keeps the column's statistics in hand, so rows few
// enough to stay in cache fold fastest. Every field ends as observe, row by
// row, would leave it. A bulk load folds each chunk of rows on the goroutine
// that stored it, and merges what its goroutines folded.
func (s *TableStats) fold(rows [][]value.Value) {
	s.RowCount += int64(len(rows))
	s.DataBytes += int64(len(rows) * value.RowHeaderSize(len(s.columns)))
	for c := range s.columns {
		// Fold into locals: neighbouring columns share cache lines.
		cs, n := s.columns[c], 0
		// seen holds values the column met in these rows, one per slot of a
		// cheap hash: a value identical to one observed already changes
		// nothing, so it skips the sketch's hash and the bounds.
		var seen [64]value.Value
		for _, row := range rows {
			v := row[c]
			n += value.FieldSize(v)
			if v.IsNull() {
				cs.nulls++
				continue
			}
			slot := &seen[seenSlot(v)]
			if slot.Kind == v.Kind && slot.I == v.I && slot.S == v.S && math.Float64bits(slot.F) == math.Float64bits(v.F) {
				continue
			}
			cs.observe(v)
			*slot = v
		}
		s.columns[c] = cs
		s.DataBytes += int64(n)
	}
}

// seenSlot is fold's slot for the non-NULL value v: a Fibonacci hash of its
// number and, for a string, its length and end bytes.
func seenSlot(v value.Value) uint64 {
	h := uint64(v.I) ^ math.Float64bits(v.F)
	if n := len(v.S); n > 0 {
		h ^= uint64(n) | uint64(v.S[0])<<8 | uint64(v.S[n-1])<<16
	}
	return h * 0x9e3779b97f4a7c15 >> 58
}

// merge folds into s what o folded from other rows of the same table. Every
// field ends as folding all the rows into s would leave it, except the bounds
// of a column that met a tie: of values that compare equal, the one kept
// depends on the order they came in. merge marks such a column tied, so
// rebound, given the rows in order, settles its bounds.
func (s *TableStats) merge(o *TableStats) {
	s.RowCount += o.RowCount
	s.DataBytes += o.DataBytes
	for c := range s.columns {
		cs, oc := &s.columns[c], &o.columns[c]
		cs.nulls += oc.nulls
		cs.tied = cs.tied || oc.tied
		if !oc.min.IsNull() {
			cs.bound(oc.min)
			cs.bound(oc.max)
		}
		cs.distinct.merge(&oc.distinct)
	}
}

// rebound re-derives, from rows, the bounds of every column whose fold met a
// tie (see columnStats.tied): rows are the rows fold saw, in the order
// observe would have seen them. The counts and sketches do not depend on the
// order, and an untied column's bounds do not either.
func (s *TableStats) rebound(rows [][]value.Value) {
	for c := range s.columns {
		cs := &s.columns[c]
		if !cs.tied {
			continue
		}
		cs.min, cs.max = value.Null(), value.Null()
		for _, row := range rows {
			if v := row[c]; !v.IsNull() {
				cs.bound(v)
			}
		}
	}
}

// settle ends a bulk load's fold: every column keeps its distinct count as
// its settled count and lets go of its sketch, so a loaded table holds what a
// restored one does (decodeStats), and reports the counts the fold found.
func (s *TableStats) settle() {
	for c := range s.columns {
		cs := &s.columns[c]
		s.columns[c] = columnStats{min: cs.min, max: cs.max, nulls: cs.nulls, settled: max(cs.distinct.count(), cs.settled)}
	}
}

// observe folds one value of the column into its statistics.
func (cs *columnStats) observe(v value.Value) {
	if v.IsNull() {
		cs.nulls++
		return
	}
	if v == cs.last {
		return
	}
	cs.last = v
	cs.distinct.add(v.Hash())
	cs.bound(v)
}

// bound widens the column's bounds to the non-NULL value v. A bound is
// replaced only by a value that compares strictly beyond it, so of values
// that compare equal the first one seen stays. When that choice arises
// between values that are not identical (a NaN, or an integer past 2^53
// stored as given in a FLOAT column beside the float it rounds to), tied
// records it: only then do the bounds depend on the order of the values.
func (cs *columnStats) bound(v value.Value) {
	if cs.min.IsNull() {
		cs.min, cs.max = v, v
		return
	}
	if k := v.Kind; k == cs.min.Kind && k == cs.max.Kind {
		// Values of one kind compare by I, F or S alone. Equal ones other
		// than floats are identical; equal floats may differ in their bits
		// (-0.0 and +0.0), and a NaN compares equal to everything, so those
		// take the general path.
		switch {
		case k == value.KindString:
			if v.S < cs.min.S {
				cs.min = v
			} else if v.S > cs.max.S {
				cs.max = v
			}
			return
		case k != value.KindFloat:
			if v.I < cs.min.I {
				cs.min = v
			} else if v.I > cs.max.I {
				cs.max = v
			}
			return
		case v.F < cs.min.F:
			cs.min = v
			return
		case v.F > cs.max.F:
			cs.max = v
			return
		case v.F > cs.min.F && v.F < cs.max.F:
			return
		}
	}
	switch c := value.Compare(v, cs.min); {
	case c < 0:
		cs.min = v
	case c == 0 && !identical(v, cs.min):
		cs.tied = true
	}
	switch c := value.Compare(v, cs.max); {
	case c > 0:
		cs.max = v
	case c == 0 && !identical(v, cs.max):
		cs.tied = true
	}
}

// identical reports whether two values that compare equal are the same
// value: equal values of one kind differ only where a float's bits do
// (NaN, negative zero).
func identical(a, b value.Value) bool {
	return a.Kind == b.Kind && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// DistinctCount returns the (possibly estimated) number of distinct non-NULL
// values in the column, and 1 at minimum for non-empty tables so selectivity
// math never divides by zero.
func (s *TableStats) DistinctCount(col int) int64 {
	if col < 0 || col >= len(s.columns) {
		return 1
	}
	return max(s.columns[col].distinct.count(), s.columns[col].settled, 1)
}

// MinMax returns the observed minimum and maximum of the column (NULL when
// the table is empty or all values are NULL).
func (s *TableStats) MinMax(col int) (value.Value, value.Value) {
	if col < 0 || col >= len(s.columns) {
		return value.Null(), value.Null()
	}
	return s.columns[col].min, s.columns[col].max
}

// NullCount returns the number of NULLs observed in the column.
func (s *TableStats) NullCount(col int) int64 {
	if col < 0 || col >= len(s.columns) {
		return 0
	}
	return s.columns[col].nulls
}

// SelectivityEquals estimates the fraction of rows matching column = constant
// using a uniform-distribution assumption over the distinct values.
func (s *TableStats) SelectivityEquals(col int) float64 {
	if s.RowCount == 0 {
		return 0
	}
	return 1.0 / float64(s.DistinctCount(col))
}

// SelectivityRange estimates the fraction of rows with column in [lo, hi]
// (either bound may be NULL for an open range) by linear interpolation over
// the observed min/max. Falls back to 1/3 when interpolation is impossible.
func (s *TableStats) SelectivityRange(col int, lo, hi value.Value) float64 {
	if s.RowCount == 0 {
		return 0
	}
	minV, maxV := s.MinMax(col)
	if minV.IsNull() || maxV.IsNull() {
		return 1.0 / 3.0
	}
	span := maxV.Float() - minV.Float()
	if span <= 0 {
		return 1.0
	}
	start := minV.Float()
	end := maxV.Float()
	if !lo.IsNull() {
		start = lo.Float()
	}
	if !hi.IsNull() {
		end = hi.Float()
	}
	if end < start {
		return 0
	}
	if start < minV.Float() {
		start = minV.Float()
	}
	if end > maxV.Float() {
		end = maxV.Float()
	}
	frac := (end - start) / span
	if frac < 0 {
		return 0
	}
	if frac > 1 {
		return 1
	}
	return frac
}
