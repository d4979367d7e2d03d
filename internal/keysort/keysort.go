// Package keysort orders byte-string keys held in one arena. A bulk build
// encodes each row's order-preserving key once, appends it here, and sorts a
// permutation of positions instead of the rows: one allocation for all the
// keys, a memcmp per comparison, and no sort at all when the input already
// arrives in key order.
package keysort

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// Keys is a list of keys packed end to end in one arena. Build a key by
// appending its bytes to Buf, then close it with End.
type Keys struct {
	// Buf is the arena; the bytes after the last End are the key being built.
	Buf  []byte
	ends []int
}

// New returns an empty list sized for n keys of about width bytes each.
func New(n, width int) *Keys {
	return &Keys{Buf: make([]byte, 0, n*width), ends: make([]int, 0, n)}
}

// Grow makes room for n more keys of about width bytes each, so that many
// End calls and appends allocate nothing.
func (k *Keys) Grow(n, width int) {
	if cap(k.ends)-len(k.ends) < n {
		k.ends = append(make([]int, 0, len(k.ends)+n), k.ends...)
	}
	if cap(k.Buf)-len(k.Buf) < n*width {
		k.Buf = append(make([]byte, 0, len(k.Buf)+n*width), k.Buf...)
	}
}

// End closes the key being built: the bytes appended to Buf since the
// previous End.
func (k *Keys) End() { k.ends = append(k.ends, len(k.Buf)) }

// Len is the number of closed keys.
func (k *Keys) Len() int { return len(k.ends) }

// Key returns key i. It aliases the arena with its capacity cut at its end,
// so appending to it copies rather than overwrite the key after it.
func (k *Keys) Key(i int) []byte {
	start := 0
	if i > 0 {
		start = k.ends[i-1]
	}
	return k.Buf[start:k.ends[i]:k.ends[i]]
}

// sorted reports whether the keys are already in ascending order (ties
// allowed), in one pass.
func (k *Keys) sorted() bool {
	for i := 1; i < k.Len(); i++ {
		if bytes.Compare(k.Key(i-1), k.Key(i)) > 0 {
			return false
		}
	}
	return true
}

// Order returns the positions of the keys in ascending key order, equal keys
// in position order (a stable sort). Sorted input costs one pass and no sort.
func (k *Keys) Order() []int {
	order := make([]int, k.Len())
	for i := range order {
		order[i] = i
	}
	if k.sorted() {
		return order
	}
	rs := make([]ranked, len(order))
	for i := range rs {
		rs[i].pos = i
	}
	k.sortFrom(rs, make([]ranked, len(rs)), 0)
	for i, r := range rs {
		order[i] = r.pos
	}
	return order
}

// radixMin is the group size below which a comparison sort beats another
// radix pass.
const radixMin = 32

// sortFrom orders rs — keys that share their first off bytes, in position
// order — by the rest of their bytes, then by position. A group is radix
// sorted, stably, on its next 8 bytes; each run of keys that share those too
// is settled the same way from off+8, and a small run, or one holding a key
// that ends inside the window, by comparison.
func (k *Keys) sortFrom(rs, tmp []ranked, off int) {
	if len(rs) < radixMin {
		k.compareFrom(rs, off)
		return
	}
	for i := range rs {
		rs[i].word = word(k.Key(rs[i].pos)[off:])
	}
	if out := radixSort(rs, tmp); &out[0] != &rs[0] {
		copy(rs, out)
	}
	for lo := 0; lo < len(rs); {
		hi, whole := lo+1, len(k.Key(rs[lo].pos)) >= off+8
		for ; hi < len(rs) && rs[hi].word == rs[lo].word; hi++ {
			whole = whole && len(k.Key(rs[hi].pos)) >= off+8
		}
		switch {
		case hi-lo == 1:
		case whole:
			k.sortFrom(rs[lo:hi], tmp[lo:hi], off+8)
		default:
			// A zero-padded word hides where a key ends.
			k.compareFrom(rs[lo:hi], off)
		}
		lo = hi
	}
}

// compareFrom is sortFrom by comparison.
func (k *Keys) compareFrom(rs []ranked, off int) {
	slices.SortFunc(rs, func(a, b ranked) int {
		if c := bytes.Compare(k.Key(a.pos)[off:], k.Key(b.pos)[off:]); c != 0 {
			return c
		}
		return a.pos - b.pos
	})
}

// ranked is a key's position and the 8-byte window of it being sorted on.
type ranked struct {
	word uint64
	pos  int
}

// radixSort orders rs by word, stably, a byte at a time from the lowest,
// using tmp (as long as rs) as the other buffer; it returns whichever of the
// two holds the result. A byte every word shares costs one counting pass.
func radixSort(rs, tmp []ranked) []ranked {
	for shift := 0; shift < 64; shift += 8 {
		var at [256]int
		for _, r := range rs {
			at[byte(r.word>>shift)]++
		}
		if at[byte(rs[0].word>>shift)] == len(rs) {
			continue
		}
		sum := 0
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		for _, r := range rs {
			b := byte(r.word >> shift)
			tmp[at[b]] = r
			at[b]++
		}
		rs, tmp = tmp, rs
	}
	return rs
}

// word is the first 8 bytes of b as a big-endian word, zero-padded. A
// smaller word means smaller bytes; equal words decide nothing.
func word(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var w [8]byte
	copy(w[:], b)
	return binary.BigEndian.Uint64(w[:])
}
