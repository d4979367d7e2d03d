package exec

import (
	"bytes"
	"hash/maphash"

	"oldelephant/internal/keysort"
	"oldelephant/internal/value"
)

// keyIndex numbers byte-string keys densely in first-seen order: the groups
// of the hash aggregates (groupTable) and the build keys of the vectorized
// hash join (joinTable). Key i is the i-th key of one arena, and an
// open-addressing index over the keys' hashes finds it, for every kind of key
// alike. After a build it is only read, so concurrent lookups need no lock.
type keyIndex struct {
	// keys holds the keys end to end. A probe encodes its key at the
	// arena's tail and cuts it off again when the key exists.
	keys   keysort.Keys
	hashes []uint64 // hashes[i]: maphash of key i
	// slots is the index: 0 marks an empty slot, anything else is the key
	// hash's high 32 bits over the key's id plus one. Linear probing, at
	// most three quarters full.
	slots []uint64
}

// keySeed keys every index's hash, so the stored hashes of one index are
// valid in the index it merges into.
var keySeed = maphash.MakeSeed()

// keyIndexSlots is a new index's size: the keys of one morsel of a
// many-key input fit without regrowing.
const keyIndexSlots = 1 << 10

func newKeyIndex() keyIndex { return keyIndex{slots: make([]uint64, keyIndexSlots)} }

// len is the number of keys.
func (x *keyIndex) len() int { return len(x.hashes) }

// intern numbers the key built at the arena's tail from byte start on: its
// id, and whether it is new. A key already held is cut off the arena again.
func (x *keyIndex) intern(start int) (id int32, added bool) {
	key := x.keys.Buf[start:]
	h := maphash.Bytes(keySeed, key)
	id, slot := x.find(key, h)
	if id >= 0 {
		x.keys.Buf = x.keys.Buf[:start]
		return id, false
	}
	return x.insert(slot, h), true
}

// lookup returns key's id, or -1 when the index does not hold it.
func (x *keyIndex) lookup(key []byte) int32 {
	id, _ := x.find(key, maphash.Bytes(keySeed, key))
	return id
}

// find looks key (hashed h) up. It returns the key's id, or -1 and the
// empty slot the key would take.
func (x *keyIndex) find(key []byte, h uint64) (id int32, slot int) {
	mask := uint64(len(x.slots) - 1)
	tag := h &^ 0xffffffff
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return -1, int(i)
		}
		if s&^0xffffffff == tag {
			if id := int32(uint32(s)) - 1; bytes.Equal(x.keys.Key(int(id)), key) {
				return id, 0
			}
		}
	}
}

// insert makes the key at the arena's tail (hashed h) the next id, at the
// empty slot find returned.
func (x *keyIndex) insert(slot int, h uint64) int32 {
	if n := len(x.hashes); n == cap(x.hashes) {
		more := max(n, 64)
		x.hashes = growCap(x.hashes, more)
		x.keys.Grow(more, len(x.keys.Buf)/max(n, 1)+1)
	}
	x.keys.End()
	x.hashes = append(x.hashes, h)
	id := int32(len(x.hashes) - 1)
	x.slots[slot] = h&^0xffffffff | uint64(id+1)
	if len(x.hashes)*4 > len(x.slots)*3 {
		x.rehash(2 * len(x.slots))
	}
	return id
}

// rehash rebuilds the index at n slots from the stored hashes.
func (x *keyIndex) rehash(n int) {
	x.slots = make([]uint64, n)
	mask := uint64(n - 1)
	for id, h := range x.hashes {
		i := h & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = h&^0xffffffff | uint64(id+1)
	}
}

// mergeKeys adds o's keys that x lacks, in o's order, and returns the id in
// x of each of o's ids. The keys new to x take the next ids in turn, so the
// ids at or past x's former len are o's new keys, in o's order.
func (x *keyIndex) mergeKeys(o *keyIndex) []int32 {
	into := make([]int32, o.len())
	for oid, h := range o.hashes {
		key := o.keys.Key(oid)
		id, slot := x.find(key, h)
		if id < 0 {
			x.keys.Buf = append(x.keys.Buf, key...)
			id = x.insert(slot, h)
		}
		into[oid] = id
	}
	return into
}

// numberKeyLen is the length of a number's join key: the in-memory key
// encoding's tag byte and float64 sort word.
const numberKeyLen = 9

// appendJoinKey appends the join key of key, one value per key column, to
// dst. Each column contributes value.AppendKeyValue's bytes, a number's cut
// after its sort word: the integer suffix past ±2^53 would tell INT 2^53+1
// from FLOAT 2^53, which value.Compare calls equal. So Compare-equal keys
// always share bytes (a bucket); a bucket can also hold keys Compare tells
// apart (two INTs past 2^53), so the joins re-check each pair with Compare.
// ok is false when a value is NULL: NULL equals nothing, so the row joins
// nothing.
func appendJoinKey(dst []byte, key []value.Value) (out []byte, ok bool) {
	for _, v := range key {
		switch v.Kind {
		case value.KindNull:
			return dst, false
		case value.KindString:
			dst = value.AppendKeyValue(dst, v)
		default:
			n := len(dst)
			dst = value.AppendKeyValue(dst, v)[:n+numberKeyLen]
		}
	}
	return dst, true
}
