package colstore

import (
	"fmt"
	"math/rand"
	"testing"

	"oldelephant/internal/value"
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
	if len(p.leading) != 100 {
		t.Errorf("l_shipdate runs = %d, want 100", len(p.leading))
	}
	supp, _ := p.Segment("l_suppkey")
	// Second sort column: runs are short (200 rows per date / 50 suppliers),
	// so either RLE over ~few-row runs or a dictionary; both compress well.
	if supp.CompressedBytes >= p.NumRows*4 {
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

// TestSegmentValueAccess: every column has a segment of at least one page,
// and the leading sort column's runs hold its values in sort order and
// cover every row.
func TestSegmentValueAccess(t *testing.T) {
	p := buildD1Like(t, 5000)
	for _, col := range p.Columns {
		seg, err := p.Segment(col)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Pages() < 1 || seg.CompressedBytes <= 0 {
			t.Errorf("%s: %d bytes in %d pages", col, seg.CompressedBytes, seg.Pages())
		}
	}
	var rows int64
	for i, r := range p.leading {
		if i > 0 && value.Compare(p.leading[i-1].v, r.v) >= 0 {
			t.Fatalf("leading runs %d and %d are not ascending", i-1, i)
		}
		rows += r.count
	}
	if rows != p.NumRows {
		t.Errorf("leading runs cover %d rows, want %d", rows, p.NumRows)
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

// TestDictCodesAreBitPacked: a dictionary segment is sized as its
// dictionary plus codes bit-packed at the fewest bits that number its
// distinct values, not as full 32-bit words.
func TestDictCodesAreBitPacked(t *testing.T) {
	// 40k rows alternating over 16 distinct strings: dictionary wins.
	rows := make([][]value.Value, 40000)
	for i := range rows {
		rows[i] = []value.Value{value.NewString(fmt.Sprintf("v%02d", i%16))}
	}
	p, err := BuildProjection("d", []string{"s"}, []value.Kind{value.KindString}, nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := p.Segment("s")
	if seg.Encoding != EncodingDict {
		t.Fatalf("encoding = %v, want DICT", seg.Encoding)
	}
	var dictBytes int64
	for i := 0; i < 16; i++ {
		dictBytes += int64(len(rows[i][0].String())) + 2
	}
	if want := dictBytes + (int64(len(rows))*4+7)/8; seg.CompressedBytes != want {
		t.Errorf("dictionary segment = %d bytes, want %d (4-bit codes)", seg.CompressedBytes, want)
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
// RLE run, and a range over it selects all rows or none.
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
	if seg.Encoding != EncodingRLE || len(p.leading) != 1 {
		t.Fatalf("constant column: encoding %v with %d runs, want RLE with 1", seg.Encoding, len(p.leading))
	}
	if r := p.leading[0]; r.count != n {
		t.Fatalf("single run counts %d, want %d", r.count, n)
	}
	seven := value.NewInt(7)
	if all, _ := p.LeadingRangeFraction(seven, seven, true, true); all != 1 {
		t.Errorf("k = 7 selects %v of the rows, want all", all)
	}
	if none, _ := p.LeadingRangeFraction(seven, value.Null(), false, true); none != 0 {
		t.Errorf("k > 7 selects %v of the rows, want none", none)
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
