package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"oldelephant/internal/exec"
	"oldelephant/internal/value"
	"oldelephant/internal/vector"
)

// buildD1Like builds a projection shaped like the paper's D1:
// (lineitem | l_shipdate, l_suppkey) with long shipdate runs.
func buildD1Like(t testing.TB, rows int) *Projection {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var data [][]value.Value
	base := value.MustParseDate("1995-01-01").Int()
	for i := 0; i < rows; i++ {
		data = append(data, []value.Value{
			value.NewDate(base + int64(i%100)),                   // 100 distinct dates
			value.NewInt(int64(rng.Intn(50))),                    // 50 suppliers
			value.NewFloat(float64(1000+rng.Intn(100000)) / 100), // price: mostly distinct
		})
	}
	p, err := BuildProjection("D1", []string{"l_shipdate", "l_suppkey", "l_extendedprice"},
		[]value.Kind{value.KindDate, value.KindInt, value.KindFloat},
		[]string{"l_shipdate", "l_suppkey"}, data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildProjectionEncodings(t *testing.T) {
	p := buildD1Like(t, 20000)
	if p.NumRows != 20000 {
		t.Fatalf("NumRows = %d", p.NumRows)
	}
	ship, err := p.Segment("l_shipdate")
	if err != nil {
		t.Fatal(err)
	}
	// The leading sort column has long runs: RLE with 100 runs.
	if ship.Encoding != EncodingRLE {
		t.Errorf("l_shipdate encoding = %v, want RLE", ship.Encoding)
	}
	if len(ship.Runs()) != 100 {
		t.Errorf("l_shipdate runs = %d, want 100", len(ship.Runs()))
	}
	supp, _ := p.Segment("l_suppkey")
	// Second sort column: runs are short (200 rows per date / 50 suppliers),
	// so either RLE over ~few-row runs or a dictionary; both compress well.
	if supp.CompressedBytes >= ship.NumRows*4 {
		t.Errorf("l_suppkey did not compress: %d bytes", supp.CompressedBytes)
	}
	price, _ := p.Segment("l_extendedprice")
	if price.Encoding == EncodingRLE {
		t.Errorf("high-cardinality unsorted column should not be RLE")
	}
	// The price column must be much larger than the shipdate column — this
	// asymmetry is what drives the paper's Q7-vs-ColOpt result.
	if price.CompressedBytes < 20*ship.CompressedBytes {
		t.Errorf("price (%d bytes) should dwarf shipdate (%d bytes)", price.CompressedBytes, ship.CompressedBytes)
	}
	if p.TotalCompressedBytes() <= 0 || p.TotalPages() <= 0 {
		t.Error("totals should be positive")
	}
	if p.ColumnIndex("l_suppkey") != 1 || p.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex wrong")
	}
}

func TestBuildProjectionErrors(t *testing.T) {
	if _, err := BuildProjection("p", []string{"a"}, nil, nil, nil); err == nil {
		t.Error("mismatched kinds should fail")
	}
	if _, err := BuildProjection("p", []string{"a"}, []value.Kind{value.KindInt}, []string{"b"}, nil); err == nil {
		t.Error("unknown sort column should fail")
	}
	if _, err := BuildProjection("p", []string{"a"}, []value.Kind{value.KindInt}, nil,
		[][]value.Value{{value.NewInt(1), value.NewInt(2)}}); err == nil {
		t.Error("wrong arity rows should fail")
	}
	p, err := BuildProjection("p", []string{"a"}, []value.Kind{value.KindInt}, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRows != 0 {
		t.Error("empty projection should have zero rows")
	}
	frac, err := p.LeadingRangeFraction(value.NewInt(1), value.Null(), true, true)
	if err != nil || frac != 0 {
		t.Errorf("empty projection fraction = %v, %v", frac, err)
	}
	if _, err := p.Segment("missing"); err == nil {
		t.Error("missing segment should fail")
	}
	if _, err := p.ColOptPages([]string{"missing"}, 1); err == nil {
		t.Error("ColOptPages of missing column should fail")
	}
}

func TestSegmentValueAccess(t *testing.T) {
	p := buildD1Like(t, 5000)
	for _, col := range p.Columns {
		seg, _ := p.Segment(col)
		if !seg.Value(0).IsNull() || !seg.Value(seg.NumRows+1).IsNull() {
			t.Errorf("%s: out-of-range positions should be NULL", col)
		}
		if seg.Value(1).IsNull() || seg.Value(seg.NumRows).IsNull() {
			t.Errorf("%s: valid positions should have values", col)
		}
	}
	// Values in the leading column are non-decreasing (projection is sorted).
	ship, _ := p.Segment("l_shipdate")
	prev := ship.Value(1)
	for pos := int64(2); pos <= ship.NumRows; pos += 97 {
		v := ship.Value(pos)
		if value.Compare(v, prev) < 0 {
			t.Fatal("leading column not sorted")
		}
		prev = v
	}
}

func TestLeadingRangeFractionAndColOpt(t *testing.T) {
	p := buildD1Like(t, 10000)
	base := value.MustParseDate("1995-01-01").Int()
	// Dates 0..99, uniform: > day 49 is half the rows.
	frac, err := p.LeadingRangeFraction(value.NewDate(base+49), value.Null(), false, true)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("fraction = %f, want about 0.5", frac)
	}
	full, _ := p.LeadingRangeFraction(value.Null(), value.Null(), true, true)
	if full != 1 {
		t.Errorf("open range fraction = %f", full)
	}
	none, _ := p.LeadingRangeFraction(value.NewDate(base+1000), value.Null(), true, true)
	if none != 0 {
		t.Errorf("empty range fraction = %f", none)
	}
	// ColOpt pages scale with the fraction and with the set of columns.
	all, err := p.ColOptPages([]string{"l_shipdate", "l_suppkey", "l_extendedprice"}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	half, _ := p.ColOptPages([]string{"l_shipdate", "l_suppkey", "l_extendedprice"}, 0.5)
	one, _ := p.ColOptPages([]string{"l_shipdate"}, 1.0)
	if half > all || one > all {
		t.Errorf("ColOpt pages inconsistent: all=%d half=%d one=%d", all, half, one)
	}
	if all <= 0 || half <= 0 || one <= 0 {
		t.Error("ColOpt pages should be positive")
	}
	// Clamping.
	clamped, _ := p.ColOptPages([]string{"l_shipdate"}, 1.5)
	if clamped != one {
		t.Errorf("fraction above 1 should clamp: %d vs %d", clamped, one)
	}
	zero, _ := p.ColOptPages([]string{"l_shipdate"}, 0)
	if zero != 0 {
		t.Errorf("fraction 0 should cost 0 pages, got %d", zero)
	}
}

// forceSegments builds one segment per encoding over the same values, so
// tests can compare the encodings' behavior directly (buildSegment normally
// picks exactly one).
func forceSegments(vals []value.Value, kind value.Kind) map[Encoding]*ColumnSegment {
	n := int64(len(vals))
	// RLE.
	var runs []Run
	for i, v := range vals {
		if len(runs) > 0 && value.Compare(runs[len(runs)-1].Value, v) == 0 {
			runs[len(runs)-1].Count++
			continue
		}
		runs = append(runs, Run{First: int64(i + 1), Value: v, Count: 1})
	}
	rle := &ColumnSegment{Name: "x", Kind: kind, Encoding: EncodingRLE, NumRows: n, runs: runs}
	// Dict with bit-packed codes.
	var dict []value.Value
	codes := make([]uint32, n)
	index := map[string]uint32{}
	for i, v := range vals {
		c, ok := index[v.String()]
		if !ok {
			c = uint32(len(dict))
			index[v.String()] = c
			dict = append(dict, v)
		}
		codes[i] = c
	}
	bits := uint(1)
	for (1 << bits) < len(dict) {
		bits++
	}
	dictSeg := &ColumnSegment{Name: "x", Kind: kind, Encoding: EncodingDict, NumRows: n,
		dict: dict, codeBits: bits, packed: packCodes(codes, bits)}
	// Raw.
	raw := &ColumnSegment{Name: "x", Kind: kind, Encoding: EncodingRaw, NumRows: n,
		raw: append([]value.Value(nil), vals...)}
	return map[Encoding]*ColumnSegment{EncodingRLE: rle, EncodingDict: dictSeg, EncodingRaw: raw}
}

// TestValueRoundTripAcrossEncodings is the encoding round-trip property:
// Value(pos) returns the same value from the RLE, dictionary (bit-packed)
// and raw representation of the same data, at every position. 23 distinct
// values force 5-bit codes, so packed codes straddle word boundaries.
func TestValueRoundTripAcrossEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]value.Value, 3000)
	cur := int64(0)
	for i := range vals {
		if rng.Intn(3) == 0 {
			cur = int64(rng.Intn(23))
		}
		vals[i] = value.NewInt(cur)
	}
	segs := forceSegments(vals, value.KindInt)
	if segs[EncodingDict].CodeBits() != 5 {
		t.Fatalf("dict code bits = %d, want 5", segs[EncodingDict].CodeBits())
	}
	for pos := int64(1); pos <= int64(len(vals)); pos++ {
		want := vals[pos-1]
		for enc, seg := range segs {
			if got := seg.Value(pos); value.Compare(got, want) != 0 {
				t.Fatalf("%v: Value(%d) = %v, want %v", enc, pos, got, want)
			}
		}
	}
	// Out-of-range positions are NULL on every encoding.
	for enc, seg := range segs {
		if !seg.Value(0).IsNull() || !seg.Value(int64(len(vals))+1).IsNull() {
			t.Errorf("%v: out-of-range position should be NULL", enc)
		}
	}
}

// TestDictCodesAreBitPacked pins the satellite fix: a dictionary segment
// stores bit-packed codes, and its byte accounting matches the packed size
// rather than full 32-bit words.
func TestDictCodesAreBitPacked(t *testing.T) {
	// 40k rows alternating over 16 distinct strings: dictionary wins.
	vals := make([]value.Value, 40000)
	for i := range vals {
		vals[i] = value.NewString(fmt.Sprintf("v%02d", i%16))
	}
	rows := make([][]value.Value, len(vals))
	for i, v := range vals {
		rows[i] = []value.Value{v}
	}
	p, err := BuildProjection("d", []string{"s"}, []value.Kind{value.KindString}, nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := p.Segment("s")
	if seg.Encoding != EncodingDict {
		t.Fatalf("encoding = %v, want DICT", seg.Encoding)
	}
	if seg.CodeBits() != 4 {
		t.Errorf("code bits = %d, want 4 for 16 distinct values", seg.CodeBits())
	}
	// The in-memory packed array must match the accounted packed size to
	// within a word, and be ~8x smaller than full uint32 codes.
	packedBytes := int64(len(seg.packed) * 8)
	accounted := (int64(len(vals))*int64(seg.CodeBits()) + 7) / 8
	if packedBytes < accounted || packedBytes > accounted+16 {
		t.Errorf("packed array = %d bytes, accounted %d", packedBytes, accounted)
	}
	if fullWords := int64(len(vals)) * 4; packedBytes*6 > fullWords {
		t.Errorf("codes are not bit-packed: %d bytes vs %d unpacked", packedBytes, fullWords)
	}
	if seg.DictSize() != 16 {
		t.Errorf("dict size = %d, want 16", seg.DictSize())
	}
}

// TestDictRawThresholdBoundary drives buildSegment to both sides of the
// dict-vs-raw decision: low-cardinality strings pick the dictionary, and
// all-distinct strings (where the dictionary would store every value AND a
// code per row) pick raw.
func TestDictRawThresholdBoundary(t *testing.T) {
	build := func(distinct, n int) Encoding {
		rows := make([][]value.Value, n)
		for i := range rows {
			rows[i] = []value.Value{value.NewString(fmt.Sprintf("value-%06d", i%distinct))}
		}
		p, err := BuildProjection("b", []string{"s"}, []value.Kind{value.KindString}, nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		seg, _ := p.Segment("s")
		return seg.Encoding
	}
	if enc := build(16, 4096); enc != EncodingDict {
		t.Errorf("low-cardinality column encoded %v, want DICT", enc)
	}
	if enc := build(4096, 4096); enc != EncodingRaw {
		t.Errorf("all-distinct column encoded %v, want RAW", enc)
	}
}

// TestSingleRunRLEColumn: a column holding one value everywhere is a single
// RLE run, selects everything in O(1) runs, and scans as a Const vector.
func TestSingleRunRLEColumn(t *testing.T) {
	const n = 5000
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(7), value.NewInt(int64(i))}
	}
	p, err := BuildProjection("one", []string{"k", "v"},
		[]value.Kind{value.KindInt, value.KindInt}, []string{"k"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := p.Segment("k")
	if seg.Encoding != EncodingRLE || len(seg.Runs()) != 1 {
		t.Fatalf("constant column: encoding %v with %d runs, want RLE with 1", seg.Encoding, len(seg.Runs()))
	}
	if r := seg.Runs()[0]; r.First != 1 || r.Count != n {
		t.Fatalf("single run starts at %d and counts %d, want 1 and %d", r.First, r.Count, n)
	}
	scan, err := NewProjectionScan(p, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	b, ok, err := scan.NextBatch()
	if err != nil || !ok {
		t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
	}
	if enc := b.Cols[0].Encoding(); enc != vector.Const {
		t.Errorf("single-run window scanned as %v vector, want const", enc)
	}
	scan.Close()
}

// TestProjectionScanEmpty: scanning an empty projection terminates
// immediately on both protocols.
func TestProjectionScanEmpty(t *testing.T) {
	p, err := BuildProjection("e", []string{"a"}, []value.Kind{value.KindInt}, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewProjectionScan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.DrainBatches(nil, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty projection scan produced %d rows", len(rows))
	}
	rows, err = exec.Drain(nil, scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty projection row scan produced %d rows", len(rows))
	}
	if _, err := NewProjectionScan(p, []string{"missing"}); err == nil {
		t.Error("scan over a missing column should fail")
	}
}

// TestProjectionScanMatchesValue: the batch scan's vectors agree with
// Value(pos) for every encoding, window by window, and the compressed
// encodings survive the window slicing (RLE segment -> RLE/Const vectors,
// dict segment -> Dict vectors, raw -> Flat).
func TestProjectionScanMatchesValue(t *testing.T) {
	p := buildD1Like(t, 5000)
	scan, err := NewProjectionScan(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	sawCompressed := false
	pos := int64(1)
	for {
		b, ok, err := scan.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for i := 0; i < b.NumRows(); i++ {
			row := b.Row(i)
			for c, col := range p.Columns {
				seg, _ := p.Segment(col)
				if want := seg.Value(pos + int64(i)); value.Compare(row[c], want) != 0 {
					t.Fatalf("position %d column %s: scan=%v Value=%v", pos+int64(i), col, row[c], want)
				}
			}
		}
		for c := range b.Cols {
			if b.Cols[c].Encoding() != vector.Flat {
				sawCompressed = true
			}
		}
		pos += int64(b.NumRows())
	}
	if pos-1 != p.NumRows {
		t.Fatalf("scan covered %d rows, want %d", pos-1, p.NumRows)
	}
	if !sawCompressed {
		t.Error("compressed projection scan emitted only flat vectors")
	}
}

func TestEncodingString(t *testing.T) {
	if EncodingRLE.String() != "RLE" || EncodingDict.String() != "DICT" || EncodingRaw.String() != "RAW" {
		t.Error("encoding names wrong")
	}
	if Encoding(9).String() == "" {
		t.Error("unknown encoding should still render")
	}
}

func TestCompressionBeatsRowStoreFootprint(t *testing.T) {
	// The whole point of the ColOpt baseline: the compressed projection is a
	// small fraction of the row representation.
	p := buildD1Like(t, 30000)
	var rowBytes int64
	rng := rand.New(rand.NewSource(5))
	base := value.MustParseDate("1995-01-01").Int()
	for i := 0; i < 30000; i++ {
		row := []value.Value{
			value.NewDate(base + int64(i%100)),
			value.NewInt(int64(rng.Intn(50))),
			value.NewFloat(float64(1000+rng.Intn(100000)) / 100),
		}
		rowBytes += int64(value.RowSize(row)) + 9
	}
	if p.TotalCompressedBytes()*2 > rowBytes {
		t.Errorf("projection (%d bytes) should be far smaller than rows (%d bytes)",
			p.TotalCompressedBytes(), rowBytes)
	}
	fmt.Fprintf(testingDiscard{}, "compressed=%d raw=%d\n", p.TotalCompressedBytes(), rowBytes)
}

type testingDiscard struct{}

func (testingDiscard) Write(p []byte) (int, error) { return len(p), nil }
