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
	"sync"
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

// Join returns the keys of parts, in order, as one list: the list itself
// when there is one, else a copy into one arena.
func Join(parts []*Keys) *Keys {
	if len(parts) == 1 {
		return parts[0]
	}
	n, size := 0, 0
	for _, p := range parts {
		n, size = n+p.Len(), size+len(p.Buf)
	}
	out := &Keys{Buf: make([]byte, 0, size), ends: make([]int, 0, n)}
	for _, p := range parts {
		base := len(out.Buf)
		out.Buf = append(out.Buf, p.Buf...)
		for _, e := range p.ends {
			out.ends = append(out.ends, base+e)
		}
	}
	return out
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
func (k *Keys) Order() []int { return k.OrderOn(1) }

// OrderOn is Order on up to workers goroutines: the first radix pass, over
// every key's first 8 bytes, runs in parallel stripes, and the groups of
// keys those bytes leave tied are settled in parallel. The order is the
// same for any number of workers.
func (k *Keys) OrderOn(workers int) []int {
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
	tmp := make([]ranked, len(rs))
	if workers = min(workers, len(rs)/parallelMin); workers > 1 {
		k.sortParallel(rs, tmp, workers)
	} else {
		k.sortFrom(rs, tmp, 0)
	}
	for i, r := range rs {
		order[i] = r.pos
	}
	return order
}

// parallelMin is the number of keys per worker below which OrderOn does not
// split its work.
const parallelMin = 1 << 14

// sortParallel is sortFrom(rs, tmp, 0) on workers goroutines.
func (k *Keys) sortParallel(rs, tmp []ranked, workers int) {
	orig := rs
	stripes := make([][2]int, workers)
	for w := range stripes {
		stripes[w] = [2]int{w * len(rs) / workers, (w + 1) * len(rs) / workers}
	}
	inParallel(workers, func(w int) {
		for i := stripes[w][0]; i < stripes[w][1]; i++ {
			rs[i].word = word(k.Key(rs[i].pos))
		}
	})
	// A stable LSD radix sort, a byte at a time: one parallel pass finds the
	// bytes that vary, and for each of them each stripe counts its bytes,
	// then scatters them to where the stripes before it and the smaller
	// bytes end, in its own order.
	diffs := make([]uint64, workers)
	inParallel(workers, func(w int) { diffs[w] = varying(rs[stripes[w][0]:stripes[w][1]], rs[0].word) })
	var diff uint64
	for _, d := range diffs {
		diff |= d
	}
	counts := make([][256]int, workers)
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		inParallel(workers, func(w int) {
			counts[w] = [256]int{}
			for _, r := range rs[stripes[w][0]:stripes[w][1]] {
				counts[w][byte(r.word>>shift)]++
			}
		})
		sum := 0
		for c := range 256 {
			for w := range counts {
				counts[w][c], sum = sum, sum+counts[w][c]
			}
		}
		inParallel(workers, func(w int) {
			at := &counts[w]
			for _, r := range rs[stripes[w][0]:stripes[w][1]] {
				c := byte(r.word >> shift)
				tmp[at[c]] = r
				at[c]++
			}
		})
		rs, tmp = tmp, rs
	}
	if &rs[0] != &orig[0] {
		copy(orig, rs)
		rs, tmp = orig, rs
	}
	// Each stripe settles the groups of equal words that start in it: its
	// first group starts at the first word that differs from the one before.
	for w := range stripes {
		lo := &stripes[w][0]
		for *lo > 0 && *lo < len(rs) && rs[*lo].word == rs[*lo-1].word {
			*lo++
		}
	}
	inParallel(workers, func(w int) { k.settle(rs, tmp, 0, stripes[w][0], stripes[w][1]) })
}

// inParallel runs task(0) to task(workers-1) on goroutines of their own and
// waits for them.
func inParallel(workers int, task func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task(w)
		}()
	}
	task(0)
	wg.Wait()
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
	k.settle(rs, tmp, off, 0, len(rs))
}

// settle orders, within rs as radix sorted on their words at off, each group
// of keys with equal words that starts in [lo, end): from off+8 on, or by
// comparison where a key ends inside the window.
func (k *Keys) settle(rs, tmp []ranked, off, lo, end int) {
	for lo < end {
		n := len(k.Key(rs[lo].pos))
		hi, whole, sameLen := lo+1, n >= off+8, true
		for ; hi < len(rs) && rs[hi].word == rs[lo].word; hi++ {
			m := len(k.Key(rs[hi].pos))
			whole, sameLen = whole && m >= off+8, sameLen && m == n
		}
		switch {
		case hi-lo == 1:
		case whole:
			k.sortFrom(rs[lo:hi], tmp[lo:hi], off+8)
		case sameLen:
			// Keys of one length that end in the window are equal: the
			// stable passes left them in position order.
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
// two holds the result. A byte every word shares costs nothing: one pass
// finds the bytes that vary (varying).
func radixSort(rs, tmp []ranked) []ranked {
	diff := varying(rs, rs[0].word)
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, r := range rs {
			at[byte(r.word>>shift)]++
		}
		sum := 0
		for c, n := range at {
			at[c], sum = sum, sum+n
		}
		for _, r := range rs {
			c := byte(r.word >> shift)
			tmp[at[c]] = r
			at[c]++
		}
		rs, tmp = tmp, rs
	}
	return rs
}

// varying returns the bits in which some word of rs differs from first.
func varying(rs []ranked, first uint64) uint64 {
	var diff uint64
	for _, r := range rs {
		diff |= r.word ^ first
	}
	return diff
}

// word is the first 8 bytes of b as a big-endian word, zero-padded. A
// smaller word means smaller bytes; equal words decide nothing.
func word(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var w uint64
	for i, c := range b {
		w |= uint64(c) << (56 - 8*i)
	}
	return w
}
