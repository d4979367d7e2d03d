package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"oldelephant/internal/storage"
)

// TestSplitBalancesBytes is the regression test for a split cut at the
// middle entry by count: after 120 short keys, four keys of about 2 KB land
// in the last leaf, and a count-balanced cut gave one half all four — more
// bytes than a page holds — which the rewrite silently truncated while the
// Insert reported success. Every acknowledged entry must read back.
func TestSplitBalancesBytes(t *testing.T) {
	tr := mustNew(t, storage.NewPager(0))
	var want []string
	for i := 0; i < 120; i++ {
		want = append(want, fmt.Sprintf("k%03d", i))
	}
	for i := 0; i < 4; i++ {
		want = append(want, strings.Repeat("x", 2000)+fmt.Sprint(i))
	}
	for _, k := range want {
		if err := tr.Insert([]byte(k), []byte{1}); err != nil {
			t.Fatalf("insert %.8q: %v", k, err)
		}
	}
	var got []string
	it := tr.Scan()
	for it.Next() {
		got = append(got, string(it.Key()))
	}
	if it.Err() != nil || !slices.Equal(got, want) || tr.Count() != int64(len(want)) {
		t.Fatalf("scan holds %d of %d entries (Count %d, err %v)", len(got), len(want), tr.Count(), it.Err())
	}
	leaves, err := tr.LeafRange(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range leaves {
		nd, err := tr.node(id)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.nodeFits(nd.entries(), true) {
			t.Errorf("leaf %d holds more than the packing rule allows", id)
		}
	}
}

// FuzzNodeGeometry writes one node of random entries — every key one width,
// every payload one width, or both varying — and reads it back through the
// node view: the geometry is the one the widths call for, every record comes
// back exactly, every bound search agrees with a sorted model, and entries
// that overflow the page are refused with the page left as it was.
func FuzzNodeGeometry(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(300))
	f.Add(int64(2), uint8(1), uint16(200))
	f.Add(int64(3), uint8(2), uint16(150))
	f.Add(int64(4), uint8(0), uint16(0))
	f.Add(int64(5), uint8(2), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, count uint16) {
		rng := rand.New(rand.NewSource(seed))
		randBytes := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(4)) // a small alphabet, so keys repeat and share prefixes
			}
			return b
		}
		keyWidth, valWidth := rng.Intn(12), rng.Intn(12)
		var entries []entry
		tr := mustNew(t, storage.NewPager(0))
		for len(entries) < int(count) {
			kw, vw := keyWidth, valWidth
			switch shape % 3 {
			case 0:
				vw = rng.Intn(20)
			case 1:
				kw = rng.Intn(20)
			default:
				kw, vw = rng.Intn(20), rng.Intn(20)
			}
			e := entry{key: randBytes(kw), val: randBytes(vw)}
			if !tr.nodeFits(append(entries, e), true) {
				break
			}
			entries = append(entries, e)
		}
		slices.SortStableFunc(entries, func(a, b entry) int { return bytes.Compare(a.key, b.key) })

		pg, err := tr.pager.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		isLeaf := shape&4 == 0
		if err := writeNode(pg, isLeaf, entries, 77); err != nil {
			t.Fatalf("%d entries that fit the packing rule: %v", len(entries), err)
		}
		nd, err := tr.node(pg.ID())
		if err != nil {
			t.Fatal(err)
		}
		sameKey, sameVal := true, true
		for _, e := range entries {
			sameKey = sameKey && len(e.key) == len(entries[0].key)
			sameVal = sameVal && len(e.val) == len(entries[0].val)
		}
		wantGeo := geoVary
		switch {
		case sameKey:
			wantGeo = geoKey
		case sameVal:
			wantGeo = geoVal
		}
		if nd.n != len(entries) || nd.geo != wantGeo || nd.isLeaf() != isLeaf || pg.Aux() != 77 {
			t.Fatalf("node reads n=%d geo=%d leaf=%v link=%d, wrote n=%d geo=%d leaf=%v link=77",
				nd.n, nd.geo, nd.isLeaf(), pg.Aux(), len(entries), wantGeo, isLeaf)
		}
		for i, e := range entries {
			key, val := nd.record(i)
			if !bytes.Equal(key, e.key) || !bytes.Equal(val, e.val) || !bytes.Equal(nd.key(i), e.key) {
				t.Fatalf("record %d reads %x/%x, wrote %x/%x", i, key, val, e.key, e.val)
			}
		}
		probes := [][]byte{nil, {}, {0xFF}}
		for _, e := range entries {
			probes = append(probes, e.key, append(slices.Clone(e.key), 0))
		}
		for i := 0; i < 8; i++ {
			probes = append(probes, randBytes(rng.Intn(20)))
		}
		for _, p := range probes {
			lower := sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].key, p) >= 0 })
			upper := sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].key, p) > 0 })
			if got := nd.lowerBound(p); got != lower {
				t.Fatalf("lowerBound(%x) = %d, model %d", p, got, lower)
			}
			if got := nd.upperBound(p); got != upper {
				t.Fatalf("upperBound(%x) = %d, model %d", p, got, upper)
			}
			if lo := rng.Intn(lower + 1); nd.boundNear(lo, p, true) != lower || nd.boundNear(lo, p, false) != upper {
				t.Fatalf("boundNear from %d to %x disagrees with the model's %d/%d", lo, p, lower, upper)
			}
		}

		// One entry more than the page holds is refused whole.
		before := slices.Clone(pg.Data())
		big := entry{key: bytes.Repeat([]byte{9}, storage.PageSize/2), val: bytes.Repeat([]byte{9}, storage.PageSize/2)}
		if err := writeNode(pg, isLeaf, append(entries, big), 5); err == nil {
			t.Fatal("writeNode accepted entries that overflow the page")
		}
		if !bytes.Equal(before, pg.Data()) {
			t.Fatal("a refused writeNode changed the page")
		}
	})
}
