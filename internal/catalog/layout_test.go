package catalog_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/exec"
	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// The leaf record layout stores every column once — clustered-key and
// index-key columns in tree key bytes only, everything else in the payload
// tuple only — so every read path reassembles rows from two spans. These tests
// generate schemas, keys and rows and check that what goes in comes out, by
// every path, whichever way it was loaded.

// layoutCase is one generated table: its schema, one secondary index and the
// rows offered to it.
type layoutCase struct {
	cols      []catalog.Column
	clustered []int // clustered-key ordinals in key order; nil = heap
	ixKey     []int
	ixIncl    []int
	ixLate    bool // create the index after the rows are loaded
	rows      [][]value.Value
}

var layoutKinds = []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindDate, value.KindBool}

// Small pools, so single-column keys collide often (duplicate clustered keys)
// and every awkward encoding shows up: integers past 2^53 (typed key suffix),
// -0.0, infinities, strings with embedded and trailing 0x00 (key escapes).
var (
	intPool = []int64{0, 1, 2, 3, -1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64}
	fltPool = []float64{0, math.Copysign(0, -1), 1.5, -2.25, 3, 1e300, -1e300, math.Inf(1), math.Inf(-1), 1 << 53, 1 << 63}
	strPool = []string{"", "a", "ab", "b", "a\x00", "\x00", "a\x00b", "\x00\x00", "\x00\xff", "\xff"}
)

func genValue(r *rand.Rand, k value.Kind) value.Value {
	switch k {
	case value.KindInt:
		return value.NewInt(intPool[r.Intn(len(intPool))])
	case value.KindFloat:
		return value.NewFloat(fltPool[r.Intn(len(fltPool))])
	case value.KindString:
		return value.NewString(strPool[r.Intn(len(strPool))])
	case value.KindDate:
		return value.NewDate(int64(r.Intn(4)) + 9000)
	default:
		return value.NewBool(r.Intn(2) == 1)
	}
}

// subset returns 1..max distinct ordinals below n in random order (0..max
// when allowEmpty).
func subset(r *rand.Rand, n, max int, allowEmpty bool) []int {
	if max > n {
		max = n
	}
	size := 1 + r.Intn(max)
	if allowEmpty {
		size = r.Intn(max + 1)
	}
	return r.Perm(n)[:size]
}

func genLayoutCase(r *rand.Rand) layoutCase {
	c := layoutCase{ixLate: r.Intn(2) == 0}
	ncols := 1 + r.Intn(6)
	for i := 0; i < ncols; i++ {
		c.cols = append(c.cols, catalog.Column{Name: fmt.Sprintf("c%d", i), Kind: layoutKinds[r.Intn(len(layoutKinds))]})
	}
	if r.Intn(5) > 0 {
		c.clustered = subset(r, ncols, 3, false)
	}
	c.ixKey = subset(r, ncols, 2, false)
	c.ixIncl = subset(r, ncols, 2, true)
	for n := r.Intn(60); n > 0; n-- {
		row := make([]value.Value, ncols)
		for i, col := range c.cols {
			switch p := r.Intn(100); {
			case p < 12:
				row[i] = value.Null()
			case p < 27: // a value of some other kind
				row[i] = genValue(r, layoutKinds[r.Intn(len(layoutKinds))])
			default:
				row[i] = genValue(r, col.Kind)
			}
		}
		c.rows = append(c.rows, row)
	}
	return c
}

func colNames(cols []catalog.Column, ords []int) []string {
	out := make([]string, len(ords))
	for i, o := range ords {
		out[i] = cols[o].Name
	}
	return out
}

// identical is bit-exact equality: kind, integer, float bits (so -0.0 and
// +0.0 differ) and string bytes.
func identical(a, b value.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func sameRows(got, want [][]value.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !identical(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d col %d: got %v %q, want %v %q", i, j, got[i][j].Kind, got[i][j], want[i][j].Kind, want[i][j])
			}
		}
	}
	return nil
}

// coerced applies the catalog's rule to a row copy: every value takes its
// column's declared kind where it has a form of that kind, a key column (one
// of ords) refuses the row where it has none, and any other column stores the
// value as given.
func coerced(cols []catalog.Column, row []value.Value, ords []int) ([]value.Value, error) {
	out := slices.Clone(row)
	for o, col := range cols {
		v, _, err := value.CoerceKeyValue(row[o], col.Kind)
		if err == nil {
			out[o] = v
		} else if slices.Contains(ords, o) {
			return nil, err
		}
	}
	return out, nil
}

// compareOn orders rows by the given columns; ties keep slice order under a
// stable sort, which is the insertion order every tree promises.
func compareOn(ords []int) func(a, b []value.Value) int {
	return func(a, b []value.Value) int {
		for _, o := range ords {
			if c := value.Compare(a[o], b[o]); c != 0 {
				return c
			}
		}
		return 0
	}
}

func project(rows [][]value.Value, ords []int) [][]value.Value {
	out := make([][]value.Value, len(rows))
	for i, row := range rows {
		out[i] = make([]value.Value, len(ords))
		for j, o := range ords {
			out[i][j] = row[o]
		}
	}
	return out
}

// drainOp pulls an operator dry through the row protocol or the batch one.
func drainOp(op exec.Operator, batch bool) ([][]value.Value, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out [][]value.Value
	for {
		if batch {
			b, ok, err := op.NextBatch()
			if err != nil || !ok {
				return out, err
			}
			for i := 0; i < b.NumRows(); i++ {
				out = append(out, b.Row(i))
			}
			continue
		}
		row, ok, err := op.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, row)
	}
}

func treeKeys(ix *catalog.Index) [][]byte {
	var keys [][]byte
	for it := ix.Tree().Scan(); it.Next(); {
		keys = append(keys, bytes.Clone(it.Key()))
	}
	return keys
}

// checkLayoutCase loads the case's rows by repeated Insert and by BulkLoad and
// holds both tables to the expected contents through every read path.
func checkLayoutCase(c layoutCase) error {
	cat := catalog.New(storage.NewPager(0))
	allCols := make([]int, len(c.cols))
	for i := range allCols {
		allCols[i] = i
	}
	// Columns strictly typed when a row arrives: the clustered key, and the
	// index key if the index already exists.
	arrival := slices.Clone(c.clustered)
	if !c.ixLate {
		arrival = append(arrival, c.ixKey...)
	}
	var want [][]value.Value // accepted rows as stored, in arrival order
	var accepted [][]value.Value
	for _, row := range c.rows {
		if stored, err := coerced(c.cols, row, arrival); err == nil {
			want = append(want, stored)
			accepted = append(accepted, row)
		}
	}
	// An index entry holds the stored row's own values; a value with no form
	// of its column's kind under a late index makes CREATE INDEX fail cleanly.
	ixFails := false
	for _, row := range want {
		if _, err := coerced(c.cols, row, c.ixKey); err != nil {
			ixFails = true
		}
	}

	var tables [2]*catalog.Table
	var indexes [2]*catalog.Index
	for i, name := range []string{"ins", "bulk"} {
		tb, err := cat.CreateTable(name, c.cols, colNames(c.cols, c.clustered))
		if err != nil {
			return err
		}
		tables[i] = tb
		createIndex := func() error {
			ix, err := cat.CreateIndex("ix", name, colNames(c.cols, c.ixKey), colNames(c.cols, c.ixIncl), false)
			indexes[i] = ix
			return err
		}
		if !c.ixLate {
			if err := createIndex(); err != nil {
				return err
			}
		}
		if name == "ins" {
			for _, row := range c.rows {
				_, rejected := coerced(c.cols, row, arrival)
				before := slices.Clone(row)
				if err := tb.Insert(row); (err != nil) != (rejected != nil) {
					return fmt.Errorf("Insert(%v) = %v, coercion says %v", row, err, rejected)
				}
				if sameRows([][]value.Value{row}, [][]value.Value{before}) != nil {
					return fmt.Errorf("Insert modified its argument %v", before)
				}
			}
		} else {
			if len(accepted) < len(c.rows) {
				if err := tb.BulkLoad(c.rows); err == nil {
					return fmt.Errorf("BulkLoad accepted a batch holding an unstorable key value")
				}
				if tb.RowCount() != 0 {
					return fmt.Errorf("failed BulkLoad left %d rows behind", tb.RowCount())
				}
			}
			if err := tb.BulkLoad(accepted); err != nil {
				return err
			}
		}
		if c.ixLate {
			if err := createIndex(); (err != nil) != ixFails {
				return fmt.Errorf("late CREATE INDEX = %v, want failure %v", err, ixFails)
			}
		}
	}

	// Incremental and bulk loading write byte-identical tree keys (two heaps
	// hand out different RIDs, so theirs are not comparable).
	if c.clustered != nil {
		if a, b := treeKeys(tables[0].Clustered), treeKeys(tables[1].Clustered); !slices.EqualFunc(a, b, bytes.Equal) {
			return fmt.Errorf("clustered keys differ between Insert and BulkLoad:\n%x\n%x", a, b)
		}
	}
	if c.clustered != nil && indexes[0] != nil {
		if a, b := treeKeys(indexes[0]), treeKeys(indexes[1]); !slices.EqualFunc(a, b, bytes.Equal) {
			return fmt.Errorf("index keys differ between Insert and BulkLoad:\n%x\n%x", a, b)
		}
	}

	// Table order: clustered key, duplicates in arrival order; a heap keeps
	// arrival order.
	wantScan := slices.Clone(want)
	slices.SortStableFunc(wantScan, compareOn(c.clustered))
	// Index order: index key, then locator — the table order just computed.
	perm := make([]int, len(wantScan))
	for i := range perm {
		perm[i] = i
	}
	var wantEntries [][]value.Value // base rows in index order
	if indexes[0] != nil {
		slices.SortStableFunc(perm, func(a, b int) int { return compareOn(c.ixKey)(wantScan[a], wantScan[b]) })
		for _, p := range perm {
			wantEntries = append(wantEntries, wantScan[p])
		}
	}

	for i, tb := range tables {
		how := []string{"Insert", "BulkLoad"}[i]
		// Cursor.Next, the decoding reference path.
		var got [][]value.Value
		cur := tb.Scan()
		for {
			row, ok, err := cur.Next()
			if err != nil {
				return fmt.Errorf("%s: Cursor.Next: %w", how, err)
			}
			if !ok {
				break
			}
			got = append(got, row)
		}
		if err := sameRows(got, wantScan); err != nil {
			return fmt.Errorf("%s: Cursor.Next: %w", how, err)
		}
		for _, batch := range []bool{false, true} {
			// A permuted projection, so the fill reads key and payload spans
			// out of storage order.
			proj := slices.Clone(allCols)
			slices.Reverse(proj)
			got, err := drainOp(exec.NewSeqScan(tb, proj), batch)
			if err == nil {
				err = sameRows(got, project(wantScan, proj))
			}
			if err != nil {
				return fmt.Errorf("%s: scan (batch=%v): %w", how, batch, err)
			}
			ix := indexes[i]
			if ix == nil {
				continue
			}
			entryOrds := ix.EntryColumnOrdinals()
			covered, err := exec.NewIndexSeek(ix, nil, nil, false, false, entryOrds)
			if err != nil {
				return err
			}
			if !covered.Covered() {
				return fmt.Errorf("%s: seek of the entry's own columns is not covered", how)
			}
			got, err = drainOp(covered, batch)
			if err == nil {
				err = sameRows(got, project(wantEntries, entryOrds))
			}
			if err != nil {
				return fmt.Errorf("%s: covered seek (batch=%v): %w", how, batch, err)
			}
			if ix.Covers(allCols) {
				continue
			}
			lookup, err := exec.NewIndexSeek(ix, nil, nil, false, false, allCols)
			if err != nil {
				return err
			}
			got, err = drainOp(lookup, batch)
			if err == nil {
				err = sameRows(got, wantEntries)
			}
			if err != nil {
				return fmt.Errorf("%s: uncovered seek (batch=%v): %w", how, batch, err)
			}
		}
	}
	return nil
}

func (c layoutCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cols %v clustered %v index (%v) include (%v) late=%v\n", c.cols, c.clustered, c.ixKey, c.ixIncl, c.ixLate)
	for _, row := range c.rows {
		for _, v := range row {
			fmt.Fprintf(&b, " %v:%q", v.Kind, v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestLeafLayoutProperty runs the generator over a fixed seed range.
func TestLeafLayoutProperty(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		c := genLayoutCase(rand.New(rand.NewSource(seed)))
		if err := checkLayoutCase(c); err != nil {
			t.Fatalf("seed %d: %v\n%v", seed, err, c)
		}
	}
}

// FuzzLeafLayout lets the fuzzer pick the generator's seed stream.
func FuzzLeafLayout(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(binary.LittleEndian.AppendUint64(nil, uint64(seed)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := genLayoutCase(rand.New(&byteSource{data: data}))
		if err := checkLayoutCase(c); err != nil {
			t.Fatalf("%v\n%v", err, c)
		}
	})
}

// byteSource feeds the fuzzer's bytes to math/rand as its random stream (and
// zeros once they run out), so mutations steer individual generator choices.
type byteSource struct {
	data []byte
}

func (s *byteSource) Int63() int64 {
	var word [8]byte
	s.data = s.data[copy(word[:], s.data):]
	return int64(binary.LittleEndian.Uint64(word[:]) >> 1)
}

func (s *byteSource) Seed(int64) {}
