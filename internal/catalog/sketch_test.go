package catalog_test

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/tpch"
)

// mapSketch is the distinct sketch as it was before its exact set became a
// flat table: a map of hashes up to 4,096 entries, then 4,096 HyperLogLog
// registers. Its arithmetic is repeated here as the reference the flat set
// must match count for count and register for register.
type mapSketch struct {
	exact map[uint64]struct{}
	regs  []uint8
}

func (d *mapSketch) add(h uint64) {
	if d.regs == nil {
		if d.exact == nil {
			d.exact = make(map[uint64]struct{})
		}
		d.exact[h] = struct{}{}
		if len(d.exact) <= 4096 {
			return
		}
		d.regs = make([]uint8, 1<<12)
		for h := range d.exact {
			d.addReg(h)
		}
		d.exact = nil
		return
	}
	d.addReg(h)
}

func (d *mapSketch) addReg(h uint64) {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	idx := h >> (64 - 12)
	rank := uint8(bits.LeadingZeros64(h<<12|1<<(12-1))) + 1
	d.regs[idx] = max(d.regs[idx], rank)
}

// sameSketch fails unless the two sketches hold the same count and, once
// spilled, the same registers.
func sameSketch(t *testing.T, name string, got *catalog.Sketch, want *mapSketch) {
	t.Helper()
	if want.regs == nil {
		if got.Registers() != nil || got.Count() != int64(len(want.exact)) {
			t.Fatalf("%s: count %d (spilled %v), want exactly %d", name, got.Count(), got.Registers() != nil, len(want.exact))
		}
		return
	}
	if !slices.Equal(got.Registers(), want.regs) {
		t.Fatalf("%s: registers differ after the spill", name)
	}
}

// TestDistinctSketchMatchesMap holds the flat exact set to the map it
// replaced: identical counts below the 4,096 spill (the hash 0 included,
// which an empty slot cannot hold), identical registers at and after it,
// for random hash streams with repeats; and identical on every column of
// every TPC-H table at SF 0.01.
func TestDistinctSketchMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, distinct := range []int{0, 1, 7, 3000, 4095, 4096, 4097, 4200, 20000} {
		var got catalog.Sketch
		var want mapSketch
		pool := make([]uint64, distinct)
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		if distinct > 1 {
			pool[1] = 0
		}
		for i := 0; i < 3*distinct; i++ {
			h := pool[rng.Intn(distinct)]
			if i < distinct {
				h = pool[i] // every hash at least once
			}
			got.Add(h)
			want.add(h)
			if i%509 == 0 || i == distinct-1 {
				sameSketch(t, "random", &got, &want)
			}
		}
		sameSketch(t, "random", &got, &want)
	}

	gen := tpch.NewGenerator(0.01)
	for _, table := range tpch.TableNames() {
		rows, err := gen.Rows(table)
		if err != nil {
			t.Fatal(err)
		}
		for c := range rows[0] {
			var got catalog.Sketch
			var want mapSketch
			for _, row := range rows {
				if v := row[c]; !v.IsNull() {
					got.Add(v.Hash())
					want.add(v.Hash())
				}
			}
			sameSketch(t, table, &got, &want)
		}
	}
}
