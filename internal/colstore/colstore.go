// Package colstore implements a column-store simulator used as the paper's
// ColOpt baseline: projections stored column by column, each column segment
// compressed with RLE, dictionary or raw encoding, and an accounting of how
// many compressed pages any C-store execution plan would need to read for a
// given query. A small native scanner over the compressed segments doubles
// as a correctness check for the row-store results.
package colstore

import (
	"fmt"
	"math"
	"sort"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// Encoding identifies how a column segment is compressed.
type Encoding int

// Supported encodings.
const (
	// EncodingRLE stores runs of equal values as (value, count) pairs. It is
	// the encoding the paper's c-tables mirror on the row-store side.
	EncodingRLE Encoding = iota
	// EncodingDict stores a dictionary of distinct values plus bit-packed codes.
	EncodingDict
	// EncodingRaw stores the values back to back with no compression.
	EncodingRaw
)

// String returns the encoding name.
func (e Encoding) String() string {
	switch e {
	case EncodingRLE:
		return "RLE"
	case EncodingDict:
		return "DICT"
	case EncodingRaw:
		return "RAW"
	default:
		return fmt.Sprintf("Encoding(%d)", int(e))
	}
}

// Run is one RLE run: Count repetitions of Value starting at position First
// (1-based, in projection sort order).
type Run struct {
	First int64
	Value value.Value
	Count int64
}

// ColumnSegment is one column of a projection in compressed form.
type ColumnSegment struct {
	Name     string
	Kind     value.Kind
	Encoding Encoding
	NumRows  int64
	// CompressedBytes is the size of the compressed representation; the page
	// count derives from it. For dictionary segments it counts the dictionary
	// plus the bit-packed code array, matching the stored form.
	CompressedBytes int64

	runs []Run         // EncodingRLE
	dict []value.Value // EncodingDict
	// packed holds the dictionary codes bit-packed codeBits per code in
	// little-endian bit order, possibly straddling word boundaries.
	packed   []uint64
	codeBits uint          // EncodingDict: bits per packed code
	raw      []value.Value // EncodingRaw
}

// CodeBits returns the bits per bit-packed dictionary code (0 for non-dict
// segments).
func (s *ColumnSegment) CodeBits() uint { return s.codeBits }

// DictSize returns the number of dictionary entries (0 for non-dict segments).
func (s *ColumnSegment) DictSize() int { return len(s.dict) }

// codeAt unpacks the dictionary code of 0-based row pos0.
func (s *ColumnSegment) codeAt(pos0 int64) uint32 {
	bitPos := uint64(pos0) * uint64(s.codeBits)
	word, off := bitPos>>6, bitPos&63
	v := s.packed[word] >> off
	if off+uint64(s.codeBits) > 64 {
		v |= s.packed[word+1] << (64 - off)
	}
	return uint32(v & (1<<s.codeBits - 1))
}

// unpackCodes unpacks the codes of 0-based rows [start, end) into a fresh
// slice. It is how the batch scan materializes a window of a dictionary
// segment without touching the rest.
func (s *ColumnSegment) unpackCodes(start, end int64) []uint32 {
	out := make([]uint32, end-start)
	for i := range out {
		out[i] = s.codeAt(start + int64(i))
	}
	return out
}

// packCodes bit-packs codes at bits per code.
func packCodes(codes []uint32, bits uint) []uint64 {
	packed := make([]uint64, (uint64(len(codes))*uint64(bits)+63)/64+1)
	for i, c := range codes {
		bitPos := uint64(i) * uint64(bits)
		word, off := bitPos>>6, bitPos&63
		packed[word] |= uint64(c) << off
		if off+uint64(bits) > 64 {
			packed[word+1] |= uint64(c) >> (64 - off)
		}
	}
	return packed
}

// Pages returns the number of storage pages the compressed segment occupies.
func (s *ColumnSegment) Pages() int64 {
	pages := (s.CompressedBytes + storage.PageSize - 1) / storage.PageSize
	if pages < 1 {
		pages = 1
	}
	return pages
}

// Runs returns the RLE runs (nil for non-RLE segments).
func (s *ColumnSegment) Runs() []Run { return s.runs }

// runIndexAt returns the index of the run covering 1-based position pos (or
// len(runs) when pos lies past the last run).
func runIndexAt(runs []Run, pos int64) int {
	return sort.Search(len(runs), func(i int) bool { return runs[i].First+runs[i].Count-1 >= pos })
}

// Value returns the value at 1-based position pos.
func (s *ColumnSegment) Value(pos int64) value.Value {
	switch s.Encoding {
	case EncodingRLE:
		i := runIndexAt(s.runs, pos)
		if i < len(s.runs) && pos >= s.runs[i].First {
			return s.runs[i].Value
		}
		return value.Null()
	case EncodingDict:
		if pos < 1 || pos > s.NumRows {
			return value.Null()
		}
		return s.dict[s.codeAt(pos-1)]
	default:
		if pos < 1 || pos > int64(len(s.raw)) {
			return value.Null()
		}
		return s.raw[pos-1]
	}
}

// Projection is a sorted, column-wise stored materialization of an expression
// over base tables — D1, D2 and D4 in the paper.
type Projection struct {
	Name        string
	Columns     []string
	Kinds       []value.Kind
	SortColumns []string
	NumRows     int64
	segments    map[string]*ColumnSegment
}

// valueBytes is the encoded size of a single value.
func valueBytes(v value.Value) int64 {
	return int64(value.FieldSize(v))
}

// BuildProjection sorts rows by sortCols and compresses every column. The
// encoding is chosen per column the way C-stores do: RLE when the column has
// long runs under the projection's sort order, dictionary encoding for
// low-cardinality columns, raw otherwise.
func BuildProjection(name string, columns []string, kinds []value.Kind, sortCols []string, rows [][]value.Value) (*Projection, error) {
	if len(columns) != len(kinds) {
		return nil, fmt.Errorf("colstore: %d columns but %d kinds", len(columns), len(kinds))
	}
	colIndex := make(map[string]int, len(columns))
	for i, c := range columns {
		colIndex[c] = i
	}
	var sortOrds []int
	for _, sc := range sortCols {
		ord, ok := colIndex[sc]
		if !ok {
			return nil, fmt.Errorf("colstore: sort column %q is not in the projection", sc)
		}
		sortOrds = append(sortOrds, ord)
	}
	for _, row := range rows {
		if len(row) != len(columns) {
			return nil, fmt.Errorf("colstore: row has %d values, want %d", len(row), len(columns))
		}
	}
	sorted := make([][]value.Value, len(rows))
	copy(sorted, rows)
	sort.SliceStable(sorted, func(i, j int) bool {
		for _, ord := range sortOrds {
			cmp := value.Compare(sorted[i][ord], sorted[j][ord])
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	p := &Projection{
		Name:        name,
		Columns:     columns,
		Kinds:       kinds,
		SortColumns: sortCols,
		NumRows:     int64(len(sorted)),
		segments:    make(map[string]*ColumnSegment),
	}
	for i, colName := range columns {
		p.segments[colName] = buildSegment(colName, kinds[i], sorted, i)
	}
	return p, nil
}

// buildSegment picks an encoding for one column and materializes it.
func buildSegment(name string, kind value.Kind, sorted [][]value.Value, ord int) *ColumnSegment {
	seg := &ColumnSegment{Name: name, Kind: kind, NumRows: int64(len(sorted))}
	// Compute RLE runs and the distinct count in one pass.
	var runs []Run
	distinct := make(map[string]int)
	var valueBytesTotal int64
	for pos := int64(1); pos <= int64(len(sorted)); pos++ {
		v := sorted[pos-1][ord]
		valueBytesTotal += valueBytes(v)
		key := v.String()
		distinct[key]++
		if len(runs) > 0 && value.Compare(runs[len(runs)-1].Value, v) == 0 {
			runs[len(runs)-1].Count++
			continue
		}
		runs = append(runs, Run{First: pos, Value: v, Count: 1})
	}
	n := int64(len(sorted))
	if n == 0 {
		seg.Encoding = EncodingRaw
		seg.CompressedBytes = 0
		return seg
	}
	// Candidate sizes.
	var runValueBytes int64
	for _, r := range runs {
		runValueBytes += valueBytes(r.Value)
	}
	rleBytes := runValueBytes + int64(len(runs))*4 // value + 32-bit count per run
	var dictValueBytes int64
	for k := range distinct {
		dictValueBytes += int64(len(k)) + 2
	}
	bits := int64(1)
	for (int64(1) << bits) < int64(len(distinct)) {
		bits++
	}
	dictBytes := dictValueBytes + (n*bits+7)/8
	rawBytes := valueBytesTotal

	min := rleBytes
	seg.Encoding = EncodingRLE
	if dictBytes < min {
		min = dictBytes
		seg.Encoding = EncodingDict
	}
	if rawBytes < min {
		min = rawBytes
		seg.Encoding = EncodingRaw
	}
	seg.CompressedBytes = min
	switch seg.Encoding {
	case EncodingRLE:
		seg.runs = runs
	case EncodingDict:
		dictVals := make([]value.Value, 0, len(distinct))
		seen := make(map[string]uint32)
		codes := make([]uint32, n)
		for i := int64(0); i < n; i++ {
			v := sorted[i][ord]
			k := v.String()
			code, ok := seen[k]
			if !ok {
				code = uint32(len(dictVals))
				seen[k] = code
				dictVals = append(dictVals, v)
			}
			codes[i] = code
		}
		seg.dict = dictVals
		seg.codeBits = uint(bits)
		seg.packed = packCodes(codes, seg.codeBits)
	case EncodingRaw:
		vals := make([]value.Value, n)
		for i := int64(0); i < n; i++ {
			vals[i] = sorted[i][ord]
		}
		seg.raw = vals
	}
	return seg
}

// Segment returns a column segment by name.
func (p *Projection) Segment(col string) (*ColumnSegment, error) {
	s, ok := p.segments[col]
	if !ok {
		return nil, fmt.Errorf("colstore: projection %q has no column %q", p.Name, col)
	}
	return s, nil
}

// TotalCompressedBytes is the size of all segments.
func (p *Projection) TotalCompressedBytes() int64 {
	var total int64
	for _, s := range p.segments {
		total += s.CompressedBytes
	}
	return total
}

// TotalPages is the page count of all segments.
func (p *Projection) TotalPages() int64 {
	var total int64
	for _, s := range p.segments {
		total += s.Pages()
	}
	return total
}

// LeadingRangeFraction returns the fraction of the projection's rows whose
// leading sort column lies in [lo, hi] (NULL bounds are open; bounds are
// interpreted per the inclusive flags). Because the projection is sorted on
// that column, the qualifying rows are contiguous, which is what makes the
// ColOpt accounting per-column proportional.
func (p *Projection) LeadingRangeFraction(lo, hi value.Value, loIncl, hiIncl bool) (float64, error) {
	if len(p.SortColumns) == 0 {
		return 1, fmt.Errorf("colstore: projection %q has no sort columns", p.Name)
	}
	seg, err := p.Segment(p.SortColumns[0])
	if err != nil {
		return 1, err
	}
	if p.NumRows == 0 {
		return 0, nil
	}
	if seg.Encoding != EncodingRLE {
		// Fall back to scanning positions (dictionary/raw leading columns are
		// rare: the leading sort column always has runs).
		var count int64
		for pos := int64(1); pos <= seg.NumRows; pos++ {
			if inRange(seg.Value(pos), lo, hi, loIncl, hiIncl) {
				count++
			}
		}
		return float64(count) / float64(p.NumRows), nil
	}
	var count int64
	for _, r := range seg.runs {
		if inRange(r.Value, lo, hi, loIncl, hiIncl) {
			count += r.Count
		}
	}
	return float64(count) / float64(p.NumRows), nil
}

func inRange(v, lo, hi value.Value, loIncl, hiIncl bool) bool {
	if !lo.IsNull() {
		cmp := value.Compare(v, lo)
		if cmp < 0 || (cmp == 0 && !loIncl) {
			return false
		}
	}
	if !hi.IsNull() {
		cmp := value.Compare(v, hi)
		if cmp > 0 || (cmp == 0 && !hiIncl) {
			return false
		}
	}
	return true
}

// ColOptPages returns the number of compressed pages any C-store plan must
// read to fetch `fraction` of each of the given columns. This is the paper's
// ColOpt lower bound: no filtering, grouping or aggregation is charged.
func (p *Projection) ColOptPages(cols []string, fraction float64) (int64, error) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	var total int64
	for _, c := range cols {
		seg, err := p.Segment(c)
		if err != nil {
			return 0, err
		}
		pages := int64(math.Ceil(float64(seg.Pages()) * fraction))
		if pages < 1 && fraction > 0 {
			pages = 1
		}
		total += pages
	}
	return total, nil
}

// ColumnIndex returns the position of a column in the projection, or -1.
func (p *Projection) ColumnIndex(col string) int {
	for i, c := range p.Columns {
		if c == col {
			return i
		}
	}
	return -1
}
