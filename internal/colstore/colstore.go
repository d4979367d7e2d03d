// Package colstore models the compressed column store behind the paper's
// ColOpt lower bound: projections stored column by column, each column
// segment compressed with RLE, dictionary or raw encoding, and an accounting
// of how many compressed pages any C-store execution plan would need to read
// for a given query. A projection keeps each segment's encoding and size and
// the runs of its leading sort column; it keeps no values to scan, because
// ColOpt is a page count, not a system.
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

// run is count repetitions of one value in projection sort order.
type run struct {
	v     value.Value
	count int64
}

// ColumnSegment is the size of one column of a projection in compressed form.
type ColumnSegment struct {
	Encoding Encoding
	// CompressedBytes is the size of the compressed representation; the page
	// count derives from it. For dictionary segments it counts the dictionary
	// plus the bit-packed code array, matching the stored form.
	CompressedBytes int64
}

// Pages returns the number of storage pages the compressed segment occupies.
func (s *ColumnSegment) Pages() int64 {
	pages := (s.CompressedBytes + storage.PageSize - 1) / storage.PageSize
	if pages < 1 {
		pages = 1
	}
	return pages
}

// Projection is a sorted, column-wise stored materialization of an expression
// over base tables — D1, D2 and D4 in the paper.
type Projection struct {
	Name        string
	Columns     []string
	SortColumns []string
	NumRows     int64
	segments    map[string]*ColumnSegment
	// leading holds the runs of the leading sort column, in sort order.
	leading []run
}

// valueBytes is the encoded size of a single value.
func valueBytes(v value.Value) int64 {
	return int64(value.FieldSize(v))
}

// BuildProjection sorts rows by sortCols and sizes every column compressed.
// The encoding is chosen per column the way C-stores do: RLE when the column
// has long runs under the projection's sort order, dictionary encoding for
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
		SortColumns: sortCols,
		NumRows:     int64(len(sorted)),
		segments:    make(map[string]*ColumnSegment),
	}
	for i, colName := range columns {
		seg, runs := buildSegment(sorted, i)
		p.segments[colName] = seg
		if len(sortOrds) > 0 && i == sortOrds[0] {
			p.leading = runs
		}
	}
	return p, nil
}

// buildSegment picks an encoding for one column and sizes it; it returns the
// column's runs too.
func buildSegment(sorted [][]value.Value, ord int) (*ColumnSegment, []run) {
	// Compute RLE runs and the distinct values in one pass.
	var runs []run
	distinct := make(map[string]struct{})
	var valueBytesTotal int64
	for _, row := range sorted {
		v := row[ord]
		valueBytesTotal += valueBytes(v)
		distinct[v.String()] = struct{}{}
		if len(runs) > 0 && value.Compare(runs[len(runs)-1].v, v) == 0 {
			runs[len(runs)-1].count++
			continue
		}
		runs = append(runs, run{v: v, count: 1})
	}
	n := int64(len(sorted))
	if n == 0 {
		return &ColumnSegment{Encoding: EncodingRaw}, nil
	}
	// Candidate sizes.
	var runValueBytes int64
	for _, r := range runs {
		runValueBytes += valueBytes(r.v)
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

	seg := &ColumnSegment{Encoding: EncodingRLE, CompressedBytes: rleBytes}
	if dictBytes < seg.CompressedBytes {
		seg.Encoding, seg.CompressedBytes = EncodingDict, dictBytes
	}
	if rawBytes < seg.CompressedBytes {
		seg.Encoding, seg.CompressedBytes = EncodingRaw, rawBytes
	}
	return seg, runs
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
	if p.NumRows == 0 {
		return 0, nil
	}
	var count int64
	for _, r := range p.leading {
		if inRange(r.v, lo, hi, loIncl, hiIncl) {
			count += r.count
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
