package keysort

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// genKeys draws n keys from a small alphabet biased to 0x00, of lengths
// around the 8-byte windows, so equal words hiding different lengths, long
// shared prefixes and exact duplicates all occur.
func genKeys(r *rand.Rand, n, maxLen int) *Keys {
	k := New(n, maxLen)
	for i := 0; i < n; i++ {
		l := r.Intn(maxLen + 1)
		for j := 0; j < l; j++ {
			k.Buf = append(k.Buf, []byte{0x00, 0x00, 0x01, 0x7F, 0xFF}[r.Intn(5)])
		}
		k.End()
	}
	return k
}

// reference is the stable comparison sort Order must reproduce.
func reference(k *Keys) []int {
	order := make([]int, k.Len())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare(k.Key(a), k.Key(b)) })
	return order
}

func TestOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(3 * radixMin)
		maxLen := 1 + r.Intn(26)
		k := genKeys(r, n, maxLen)
		if got, want := k.Order(), reference(k); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, maxLen=%d): order differs from a stable sort", trial, n, maxLen)
		}
	}
}

func TestOrderOfSortedInputIsIdentity(t *testing.T) {
	k := New(0, 0)
	for i := 0; i < 1000; i++ {
		k.Buf = append(k.Buf, byte(i>>8), byte(i), byte(i%3))
		k.End()
		if i%7 == 0 { // a duplicate, adjacent: still sorted
			k.Buf = append(k.Buf, k.Key(k.Len()-1)...)
			k.End()
		}
	}
	if !k.sorted() {
		t.Fatal("ascending keys with adjacent duplicates reported unsorted")
	}
	for i, p := range k.Order() {
		if p != i {
			t.Fatalf("position %d holds key %d", i, p)
		}
	}
}

func TestKeyCapacityStopsAtItsEnd(t *testing.T) {
	k := New(2, 2)
	k.Buf = append(k.Buf, 'a')
	k.End()
	k.Buf = append(k.Buf, 'b')
	k.End()
	_ = append(k.Key(0), 'x')
	if string(k.Key(1)) != "b" {
		t.Errorf("appending to key 0 overwrote key 1: %q", k.Key(1))
	}
}

// BenchmarkOrder sorts 120,000 keys shaped like c-table design sort keys:
// d1 a date (about 48 rows each) then a supplier key; d4 a three-valued flag,
// a nation key, then a wide float.
func BenchmarkOrder(b *testing.B) {
	shapes := map[string]func(r *rand.Rand, buf []byte) []byte{
		"d1": func(r *rand.Rand, buf []byte) []byte {
			d, s := 8000+r.Intn(2500), 1+r.Intn(200)
			buf = append(buf, 0x02, 0xC0, 0xBF, byte(d>>8), byte(d), 0, 0, 0, 0)
			return append(buf, 0x02, 0xC0, 0x60, byte(s), 0, 0, 0, 0, 0)
		},
		"d4": func(r *rand.Rand, buf []byte) []byte {
			buf = append(buf, 0x03, "ANR"[r.Intn(3)], 0x00, 0x00, 0x02, 0xC0, byte(r.Intn(25)))
			for j := 0; j < 15; j++ {
				buf = append(buf, byte(r.Intn(256)))
			}
			return buf
		},
	}
	for _, name := range []string{"d1", "d4"} {
		b.Run(name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			k := New(120000, 22)
			for i := 0; i < 120000; i++ {
				k.Buf = shapes[name](r, k.Buf)
				k.End()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Order()
			}
		})
	}
}

// TestParallelOrderMatchesStableSort: OrderOn splits the first radix pass and
// the settling of tied groups over workers; on inputs large enough to split —
// keys of every length around the 8-byte window, long shared prefixes and
// duplicates, and the same keys already sorted but for one — every worker
// count must give the stable sort's order.
func TestParallelOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		n := 2*parallelMin + r.Intn(3*parallelMin)
		k := genKeys(r, n, 1+r.Intn(20))
		want := reference(k)
		for _, workers := range []int{1, 2, 3, 8} {
			if got := k.OrderOn(workers); !slices.Equal(got, want) {
				t.Fatalf("trial %d (n=%d), %d workers: order differs from a stable sort", trial, n, workers)
			}
		}
	}
}
