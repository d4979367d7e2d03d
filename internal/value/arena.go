package value

// StringArena batches the per-value string allocations of a decode pass into
// one immutable allocation per batch. Decoders stage raw string bytes into a
// recycled staging buffer and keep a packed (start, length) word per value;
// after the last row of the batch, Seal performs the batch's single string
// allocation and each word resolves to a substring of it. The produced
// Values are ordinary deep strings — retaining consumers (aggregates, sorts,
// join builds) keep working, and only the staging buffer is ever reused.
type StringArena struct {
	buf    []byte
	sealed string
}

// Reset discards the previous batch's staging contents, keeping capacity. The
// previously sealed string is untouched — values resolved from it remain
// valid forever.
func (a *StringArena) Reset() {
	a.buf = a.buf[:0]
	a.sealed = ""
}

// StagePacked copies b into the staging buffer and returns the packed
// (start, length) word — an 8-byte append with no write barrier, where a
// Value is five words. The packed form bounds a batch's staged bytes at
// 2^32, far above any batch the executor produces (1024 rows of page-bounded
// records). Resolve the word against Sealed() after Seal.
func (a *StringArena) StagePacked(b []byte) uint64 {
	start := len(a.buf)
	a.buf = append(a.buf, b...)
	return uint64(start)<<32 | uint64(len(b))
}

// Seal freezes the staged bytes into one immutable string — the batch's
// single string allocation.
func (a *StringArena) Seal() {
	a.sealed = string(a.buf)
}

// Sealed returns the sealed batch string; packed spans substring-slice it.
func (a *StringArena) Sealed() string { return a.sealed }
