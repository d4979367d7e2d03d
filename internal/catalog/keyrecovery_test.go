package catalog

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// TestBigIntKeyRecoveryNeverTouchesPayload pins the typed-integer key
// encoding: clustered integer keys of any magnitude — including values beyond
// ±2^53, which a float64 cannot tell apart — are recovered
// exactly from B+-tree key bytes, the only place they are stored, and a
// key-only projection never decodes the payload. The payload independence is
// proven directly: every stored payload is replaced with bytes that cannot be
// parsed as a tuple, so any code path that touches the payload fails loudly,
// while the key walk of the row decoder (Cursor.NextSpans + the layout's key
// decoder, the first half of what Cursor.Next runs) still returns every key
// exactly and performs real page reads (IOStats). A truncated key, in turn, is
// an error, never a wrong value. The batch fill's own key walk is held to the
// same poisoned payloads by exec's TestFillReadsOnlyTheSpansItProjects.
func TestBigIntKeyRecoveryNeverTouchesPayload(t *testing.T) {
	pager := storage.NewPager(0)
	c := New(pager)
	tbl, err := c.CreateTable("big", []Column{
		{Name: "k", Kind: value.KindInt},
		{Name: "note", Kind: value.KindString},
	}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{
		math.MinInt64, math.MinInt64 + 1,
		-(1 << 53) - 1, -(1 << 53), -(1 << 53) + 1,
		-1, 0, 1,
		(1 << 53) - 1, 1 << 53, (1 << 53) + 1,
		math.MaxInt64 - 1, math.MaxInt64,
	}
	for _, k := range keys {
		row := []value.Value{value.NewInt(k), value.NewString(fmt.Sprintf("row-%d", k))}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	// Sanity: the payload path still works before poisoning.
	it := tbl.Scan()
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != len(keys) {
		t.Fatalf("pre-poison scan saw %d rows, want %d", n, len(keys))
	}

	// Poison every payload: replace it with a header claiming 7 fields and no
	// field bytes, which no tuple decoder can parse.
	tree := tbl.Clustered.tree
	var rawKeys [][]byte
	sc := tree.Scan()
	for sc.Next() {
		rawKeys = append(rawKeys, append([]byte(nil), sc.Key()...))
	}
	if len(rawKeys) != len(keys) {
		t.Fatalf("tree holds %d entries, want %d", len(rawKeys), len(keys))
	}
	for _, rk := range rawKeys {
		if ok, err := tree.Delete(rk); err != nil || !ok {
			t.Fatalf("delete of key %x failed: %v", rk, err)
		}
		if err := tree.Insert(rk, []byte{0x07}); err != nil {
			t.Fatal(err)
		}
	}

	// The poison is effective: a full-row scan must fail on the first row.
	if _, _, err := tbl.Scan().Next(); err == nil {
		t.Fatal("poisoned payload unexpectedly decoded as a tuple")
	}

	// Key-only projection over a cold buffer pool: every key comes back
	// exactly, no error — the payload bytes were never parsed — and the scan
	// performed real page reads.
	pager.ResetCache()
	before := pager.Stats()
	layout := tbl.Layout()
	proj := tbl.Scan()
	var got []int64
	keySpans, paySpans := make([][]byte, 4), make([][]byte, 4)
	row := make([]value.Value, len(tbl.Columns))
	for {
		n := proj.NextSpans(keySpans, paySpans)
		if n == 0 {
			break
		}
		for _, key := range keySpans[:n] {
			if err := layout.decodeKey(key, row); err != nil {
				t.Fatalf("key-only projection failed: %v", err)
			}
			if row[0].Kind != value.KindInt {
				t.Fatalf("recovered key has kind %v, want int", row[0].Kind)
			}
			got = append(got, row[0].I)
			if cut := key[:len(key)-1]; layout.decodeKey(cut, row) == nil {
				t.Fatalf("truncated key %x decoded as %v", cut, row[0])
			}
		}
	}
	if err := proj.Err(); err != nil {
		t.Fatalf("key-only projection hit a page error: %v", err)
	}
	if reads := pager.Stats().Sub(before).PageReads; reads == 0 {
		t.Fatal("projected scan performed no page reads; cold-read check is vacuous")
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d: recovered %d, want %d", i, got[i], want[i])
		}
	}
}
