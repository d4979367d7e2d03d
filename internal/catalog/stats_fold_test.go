package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"oldelephant/internal/value"
)

// foldKinds are the declared kinds of the random tables' non-key columns.
var foldKinds = []value.Kind{value.KindInt, value.KindFloat, value.KindDate, value.KindString, value.KindBool}

// foldValue draws one value for a column of kind k with about card distinct
// values: mostly of k, sometimes NULL, and sometimes a stray kind the table
// keeps as given — among them values that compare equal to others without
// being identical (a NaN, an integer past 2^53 beside its float), the case in
// which a column's bounds depend on the order of its rows.
func foldValue(r *rand.Rand, k value.Kind, card int) value.Value {
	n := int64(r.Intn(card)) - int64(card/3)
	switch p := r.Intn(100); {
	case p < 5:
		return value.Null()
	case p < 8:
		switch k {
		case value.KindFloat:
			if r.Intn(2) == 0 {
				return value.NewFloat(math.NaN())
			}
			return value.NewInt(1<<53 + 1) // compares equal to the float 2^53
		case value.KindString:
			return value.NewInt(n)
		default:
			return value.NewString(fmt.Sprintf("stray%d", r.Intn(5)))
		}
	}
	switch k {
	case value.KindFloat:
		if r.Intn(20) == 0 {
			return value.NewFloat(1 << 53)
		}
		return value.NewFloat(float64(n) / 4)
	case value.KindDate:
		return value.NewDate(n)
	case value.KindString:
		return value.NewString(fmt.Sprintf("s%05d", n))
	case value.KindBool:
		return value.NewBool(n%2 == 0)
	}
	return value.NewInt(n)
}

// samePublic fails unless got reports exactly the statistics want does: the
// row count and bytes, and for every column the distinct count, the nulls and
// both bounds, kind and bits.
func samePublic(t *testing.T, name string, got, want *TableStats) {
	t.Helper()
	if got.RowCount != want.RowCount || got.DataBytes != want.DataBytes {
		t.Fatalf("%s: %d rows of %d bytes, want %d of %d", name, got.RowCount, got.DataBytes, want.RowCount, want.DataBytes)
	}
	for c := range want.columns {
		if got.DistinctCount(c) != want.DistinctCount(c) || got.NullCount(c) != want.NullCount(c) {
			t.Fatalf("%s column %d: %d distinct, %d nulls; want %d, %d", name, c,
				got.DistinctCount(c), got.NullCount(c), want.DistinctCount(c), want.NullCount(c))
		}
		gmin, gmax := got.MinMax(c)
		wmin, wmax := want.MinMax(c)
		for _, b := range [][2]value.Value{{gmin, wmin}, {gmax, wmax}} {
			if b[0].Kind != b[1].Kind || b[0].I != b[1].I || b[0].S != b[1].S ||
				math.Float64bits(b[0].F) != math.Float64bits(b[1].F) {
				t.Fatalf("%s column %d: bounds [%v %v] %v..%v, want [%v %v] %v..%v", name, c,
					gmin.Kind, gmax.Kind, gmin, gmax, wmin.Kind, wmax.Kind, wmin, wmax)
			}
		}
	}
}

// sameStats fails unless got holds exactly the statistics in want: what
// samePublic compares, and every column's distinct sketch (its exact set as a
// set, or its registers).
func sameStats(t *testing.T, name string, got, want *TableStats) {
	t.Helper()
	samePublic(t, name, got, want)
	set := func(d *distinctSketch) []uint64 {
		s := slices.DeleteFunc(slices.Clone(d.exact), func(h uint64) bool { return h == 0 })
		slices.Sort(s)
		return s
	}
	for c := range want.columns {
		g, w := &got.columns[c].distinct, &want.columns[c].distinct
		if g.n != w.n || g.zero != w.zero || !slices.Equal(g.regs, w.regs) || !slices.Equal(set(g), set(w)) {
			t.Fatalf("%s column %d: the distinct sketch differs from the serial fold's", name, c)
		}
	}
}

// TestParallelStatsFoldMatchesSerial: a bulk load folds its statistics
// column by column on GOMAXPROCS workers, in input order, beside the tree
// build, re-derives tied bounds in key order, and settles. On random tables
// of 1 to 14 columns — NULLs, stray kinds, values that tie without being
// identical, columns past the sketch's exact limit — loaded sorted and
// shuffled into a clustered table and into a keyless one, the fold of the
// stored rows, before it settles, must equal a serial observe over them in
// key order, as the table reads them back, field for field, sketches
// included. The loaded table must report the same counts, nulls and bounds
// and hold no sketch.
func TestParallelStatsFoldMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	ties := 0
	for trial := 0; trial < 12; trial++ {
		ncols := 1 + r.Intn(14)
		cols := []Column{{Name: "k", Kind: value.KindInt}}
		cards := []int{1 + r.Intn(8000)}
		for c := 1; c < ncols; c++ {
			cols = append(cols, Column{Name: fmt.Sprintf("c%d", c), Kind: foldKinds[r.Intn(len(foldKinds))]})
			cards = append(cards, []int{3, 300, 9000}[r.Intn(3)])
		}
		rows := make([][]value.Value, 6000+r.Intn(4000))
		for i := range rows {
			row := []value.Value{value.NewInt(int64(r.Intn(cards[0])))}
			for c := 1; c < ncols; c++ {
				row = append(row, foldValue(r, cols[c].Kind, cards[c]))
			}
			rows[i] = row
		}
		sorted := slices.Clone(rows)
		slices.SortStableFunc(sorted, func(a, b []value.Value) int { return value.Compare(a[0], b[0]) })
		for _, in := range []struct {
			name string
			rows [][]value.Value
			key  []string
		}{{"sorted", sorted, []string{"k"}}, {"shuffled", rows, []string{"k"}}, {"heap", rows, nil}} {
			name := fmt.Sprintf("trial %d (%d columns), %s", trial, ncols, in.name)
			c := newTestCatalog()
			tbl, err := c.CreateTable("t", cols, in.key)
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.BulkLoad(in.rows); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := NewTableStats(cols)
			var keyOrder [][]value.Value
			cur := tbl.Scan()
			for {
				row, ok, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				want.observe(row)
				keyOrder = append(keyOrder, row)
			}
			stored := make([][]value.Value, len(in.rows))
			for i, row := range in.rows {
				if stored[i], err = tbl.storedRow(row, nil); err != nil {
					t.Fatal(err)
				}
			}
			folded := NewTableStats(cols)
			folded.fold(stored)
			folded.rebound(keyOrder)
			sameStats(t, name, folded, want)
			samePublic(t, name+", loaded", tbl.Stats, want)
			for c, cs := range tbl.Stats.columns {
				if cs.distinct.exact != nil || cs.distinct.regs != nil {
					t.Fatalf("%s column %d: the loaded table keeps its sketch", name, c)
				}
				if folded.columns[c].tied {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Error("no column's bounds met a tie: the order-dependent case went untested")
	}
}

// TestStatsFoldMergeMatchesSerial: a bulk load folds each chunk of its rows
// into its goroutine's statistics and merges them. Folding random tables —
// NULLs, stray kinds, ties that are not identical, columns past the sketch's
// exact limit — in 1 to 7 parts and merging the parts, then re-deriving tied
// bounds from the rows in order, must leave exactly the serial fold's
// statistics, sketches included, whichever way the rows are cut.
func TestStatsFoldMergeMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20; trial++ {
		ncols := 1 + r.Intn(8)
		var cols []Column
		var cards []int
		for c := 0; c < ncols; c++ {
			cols = append(cols, Column{Name: fmt.Sprintf("c%d", c), Kind: foldKinds[r.Intn(len(foldKinds))]})
			cards = append(cards, []int{3, 300, 9000}[r.Intn(3)])
		}
		rows := make([][]value.Value, 2000+r.Intn(8000))
		for i := range rows {
			for c := 0; c < ncols; c++ {
				rows[i] = append(rows[i], foldValue(r, cols[c].Kind, cards[c]))
			}
		}
		want := NewTableStats(cols)
		want.fold(rows)
		parts := 1 + r.Intn(7)
		cuts := []int{0}
		for p := 1; p < parts; p++ {
			cuts = append(cuts, r.Intn(len(rows)+1))
		}
		cuts = append(cuts, len(rows))
		slices.Sort(cuts)
		got := NewTableStats(cols)
		for p := 0; p+1 < len(cuts); p++ {
			part := NewTableStats(cols)
			part.fold(rows[cuts[p]:cuts[p+1]])
			got.merge(part)
		}
		got.rebound(rows)
		sameStats(t, fmt.Sprintf("trial %d (%d columns, %d parts)", trial, ncols, parts), got, want)
	}
}
