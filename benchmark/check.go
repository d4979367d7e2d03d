package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	elephant "oldelephant"
	"oldelephant/internal/value"
)

// floatTolerance is the relative difference two computed floats may have and
// still be the same answer: parallel plans sum in a different order.
const floatTolerance = 1e-9

// digest summarises a result set so that every answer of the timed window
// can be held against the statement's reference answer without keeping the
// rows: it is insensitive to row order and tolerant of float rounding. Each
// float is weighted by a hash of its row's other cells, so a float that
// moved to another group changes the digest.
type digest struct {
	rows int
	hash uint64  // sum over rows of the hash of the non-float cells
	fsum float64 // sum over rows of weight(row) × float cells
	fabs float64 // sum of |weight × float|: the scale fsum is compared at
}

func digestRows(rows []elephant.Row) digest {
	d := digest{rows: len(rows)}
	var buf [9]byte
	for _, row := range rows {
		h := fnv.New64a()
		for _, v := range row {
			if v.Kind == value.KindFloat {
				continue
			}
			buf[0] = byte(v.Kind)
			for i := 0; i < 8; i++ {
				buf[1+i] = byte(uint64(v.I) >> (8 * i))
			}
			h.Write(buf[:])
			h.Write([]byte(v.S))
		}
		rh := h.Sum64()
		d.hash += rh
		weight := 1 + float64(rh>>11)/(1<<53)
		for _, v := range row {
			if v.Kind == value.KindFloat {
				d.fsum += weight * v.F
				d.fabs += math.Abs(weight * v.F)
			}
		}
	}
	return d
}

func (d digest) equal(o digest) bool {
	return d.rows == o.rows && d.hash == o.hash &&
		math.Abs(d.fsum-o.fsum) <= floatTolerance*math.Max(d.fabs, o.fabs)
}

// sameRows compares two result sets order-insensitively, floats to a
// relative floatTolerance, and describes the first difference.
func sameRows(got, want []elephant.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			if !sameValue(g[i][j], w[i][j]) {
				return fmt.Errorf("row %d column %d: %s, want %s", i, j, g[i][j], w[i][j])
			}
		}
	}
	return nil
}

func sameValue(a, b elephant.Value) bool {
	if a.Kind == value.KindFloat && b.Kind == value.KindFloat {
		return math.Abs(a.F-b.F) <= floatTolerance*math.Max(math.Abs(a.F), math.Abs(b.F))
	}
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S
}

// sortedRows orders rows by their non-float cells, then by their floats, so
// equal sets line up whatever order each engine produced them in.
func sortedRows(rows []elephant.Row) []elephant.Row {
	type keyed struct {
		key string
		row elephant.Row
	}
	ks := make([]keyed, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for _, v := range row {
			if v.Kind != value.KindFloat {
				fmt.Fprintf(&b, "%d:%020d:%s|", v.Kind, uint64(v.I)^(1<<63), v.S)
			}
		}
		ks[i] = keyed{b.String(), row}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if ks[i].key != ks[j].key {
			return ks[i].key < ks[j].key
		}
		for c := range ks[i].row {
			if a, b := ks[i].row[c], ks[j].row[c]; a.Kind == value.KindFloat && a.F != b.F {
				return a.F < b.F
			}
		}
		return false
	})
	out := make([]elephant.Row, len(rows))
	for i, k := range ks {
		out[i] = k.row
	}
	return out
}
