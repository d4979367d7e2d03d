package colstore

import (
	"fmt"

	"oldelephant/internal/exec"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// ProjectionScan exposes a compressed projection as an executor operator: it
// emits batches whose column vectors come straight from the compressed
// segments (RLE runs as RLE vectors, dictionary segments as Dict vectors
// sharing the dictionary, raw segments as zero-copy Flat slices). This is
// what turns the paper's ColOpt bound from a hand-written side path into a
// first-class executor configuration — the same Filter and aggregate
// operators that run row-store plans run the C-store plan, just on compressed
// vectors.
//
// ProjectionScan is an exec.Operator (and an exec.Morseler) like every other
// scan. Projections are an in-memory cost model, so the scan performs no
// pager I/O; the harness keeps charging ColOpt its analytic compressed-page
// count.
type ProjectionScan struct {
	Proj *Projection
	Cols []string

	segs   []*ColumnSegment
	schema []exec.ColumnInfo
	pos    int64 // next 0-based position
	// lo and hi bound the scanned 0-based row range [lo, hi); a full scan
	// covers [0, NumRows). Parallel morsels are ProjectionScan clones over
	// disjoint windows — compressed segments clip per window, so RLE and
	// dictionary morsels cross worker boundaries without decompressing.
	lo, hi int64
}

var _ exec.Morseler = (*ProjectionScan)(nil)

// NewProjectionScan builds a scan over the given projection columns (nil
// means all, in projection order).
func NewProjectionScan(p *Projection, cols []string) (*ProjectionScan, error) {
	if cols == nil {
		cols = p.Columns
	}
	s := &ProjectionScan{Proj: p, Cols: cols, lo: 0, hi: p.NumRows}
	for _, col := range cols {
		seg, err := p.Segment(col)
		if err != nil {
			return nil, err
		}
		idx := p.ColumnIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("colstore: projection %q has no column %q", p.Name, col)
		}
		s.segs = append(s.segs, seg)
		s.schema = append(s.schema, exec.ColumnInfo{Name: col, Kind: p.Kinds[idx]})
	}
	return s, nil
}

// Schema implements exec.Operator.
func (s *ProjectionScan) Schema() []exec.ColumnInfo { return s.schema }

// Open implements exec.Operator.
func (s *ProjectionScan) Open() error {
	s.pos = s.lo
	return nil
}

// NumScanRows implements exec.Morseler.
func (s *ProjectionScan) NumScanRows() int64 { return s.hi - s.lo }

// Morsels implements exec.Morseler: the projection splits into row windows of
// targetRows rows, each a ProjectionScan clone sharing the compressed
// segments. Its batches are windows of immutable segments, which any
// consumer may retain, so retain changes nothing.
func (s *ProjectionScan) Morsels(targetRows int, retain bool) ([]exec.Operator, bool) {
	if targetRows < 1 {
		targetRows = 1
	}
	var out []exec.Operator
	for lo := s.lo; lo < s.hi; lo += int64(targetRows) {
		hi := lo + int64(targetRows)
		if hi > s.hi {
			hi = s.hi
		}
		clone := *s
		clone.lo, clone.hi = lo, hi
		clone.pos = lo
		out = append(out, &clone)
	}
	return out, len(out) >= 2
}

// NumMorsels implements exec.Morseler: the row windows Morsels makes.
func (s *ProjectionScan) NumMorsels(targetRows int) int {
	n := int64(max(targetRows, 1))
	return int((s.hi - s.lo + n - 1) / n)
}

// Close implements exec.Operator.
func (s *ProjectionScan) Close() error { return nil }

// Next implements exec.Operator for row-at-a-time parents; the hot path is
// NextBatch.
func (s *ProjectionScan) Next() (exec.Row, bool, error) {
	if s.pos >= s.hi {
		return nil, false, nil
	}
	row := make(exec.Row, len(s.segs))
	for i, seg := range s.segs {
		row[i] = seg.Value(s.pos + 1)
	}
	s.pos++
	return row, true, nil
}

// NextBatch implements exec.Operator, emitting compressed vectors
// clipped to the batch window.
func (s *ProjectionScan) NextBatch() (*exec.Batch, bool, error) {
	start := s.pos
	if start >= s.hi {
		return nil, false, nil
	}
	end := start + exec.DefaultBatchSize
	if end > s.hi {
		end = s.hi
	}
	s.pos = end
	cols := make([]*vector.Vector, len(s.segs))
	for i, seg := range s.segs {
		cols[i] = seg.vectorWindow(start, end)
	}
	return exec.NewBatchFromVectors(cols), true, nil
}

// vectorWindow builds the vector for 0-based rows [start, end) of a segment.
func (s *ColumnSegment) vectorWindow(start, end int64) *vector.Vector {
	switch s.Encoding {
	case EncodingRLE:
		// Runs are 1-based and sorted; locate the run containing start and
		// clip runs to the window. A window that lies inside one run becomes
		// a Const vector.
		i := runIndexAt(s.runs, start+1)
		var vals []value.Value
		var ends []int
		for ; i < len(s.runs); i++ {
			r := s.runs[i]
			if r.First > end {
				break
			}
			last := r.First + r.Count - 1
			if last > end {
				last = end
			}
			vals = append(vals, r.Value)
			ends = append(ends, int(last-start))
		}
		if len(vals) == 1 {
			return vector.NewConst(vals[0], int(end-start))
		}
		return vector.NewRLE(vals, ends)
	case EncodingDict:
		return vector.NewDict(s.dict, s.unpackCodes(start, end))
	default:
		return vector.NewFlat(s.raw[start:end])
	}
}
