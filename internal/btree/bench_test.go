package btree

import (
	"encoding/binary"
	"testing"

	"oldelephant/internal/storage"
)

// denseTree bulk-loads n records shaped like a dense c-table's (f, v) rows —
// a 5-byte key, a 3-byte payload and the 9-byte row header, ≈22 bytes a
// record and ≈350 records a leaf — which at 100k records is a two-level tree.
func denseTree(tb testing.TB, n int) *BTree {
	tb.Helper()
	tr := mustNew(tb, storage.NewPager(0))
	i := 0
	if err := loadSorted(tr, func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		i++
		return denseKey(i - 1), []byte{5, byte(i), byte(i >> 8)}, true
	}, 1.0); err != nil {
		tb.Fatal(err)
	}
	return tr
}

func denseKey(i int) []byte {
	return binary.BigEndian.AppendUint32([]byte{2}, uint32(i))
}

const denseRecords = 100_000

// rewriteLastLeaf inserts and deletes one key past the end: the tree's
// contents are unchanged, but it has been written to since its last read.
func rewriteLastLeaf(tb testing.TB, tr *BTree) {
	tb.Helper()
	extra := denseKey(denseRecords)
	if err := tr.Insert(extra, []byte{5, 0, 0}); err != nil {
		tb.Fatal(err)
	}
	if ok, err := tr.Delete(extra); !ok || err != nil {
		tb.Fatalf("delete: %v %v", ok, err)
	}
}

// drainSpans scans the whole tree through NextSpans and returns the row count.
// It reads one byte of every payload, as any consumer of the spans does:
// handing out a span and never looking at it would leave the page untouched
// and measure only the copying of slice headers.
func drainSpans(tr *BTree, keys, vals [][]byte) int {
	rows := 0
	for it := tr.Scan(); ; {
		m := it.NextSpans(keys, vals)
		if m == 0 {
			return rows
		}
		for _, val := range vals[:m] {
			benchSink += int(val[0])
		}
		rows += m
	}
}

var benchSink int

// BenchmarkSeekDenseLeaf is the index-nested-loop hot path: a point seek into
// a two-level tree whose leaves hold ≈350 records each, so a seek that decoded
// its whole leaf would pay for 350 records to return one. One op is 4096 seeks
// at scattered keys.
func BenchmarkSeekDenseLeaf(b *testing.B) {
	tr := denseTree(b, denseRecords)
	if tr.Height() != 2 {
		b.Fatalf("height %d, want a two-level tree", tr.Height())
	}
	const seeks = 4096
	keys := make([][]byte, seeks)
	for i := range keys {
		keys[i] = denseKey(i * 7919 % denseRecords)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			it := tr.Seek(k, k, true)
			if !it.Next() {
				b.Fatal("seek missed a stored key")
			}
			benchSink += len(it.Value())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*seeks), "ns/seek")
}

// BenchmarkScanSpans drains the whole tree through NextSpans in 1024-entry
// batches: repeated scans of an unmodified tree, and cold scans that each
// follow an Insert/Delete pair (the first read of every leaf after a write).
func BenchmarkScanSpans(b *testing.B) {
	for _, cold := range []bool{false, true} {
		name := "repeated"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			tr := denseTree(b, denseRecords)
			keys, vals := make([][]byte, 1024), make([][]byte, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					rewriteLastLeaf(b, tr)
					b.StartTimer()
				}
				if rows := drainSpans(tr, keys, vals); rows != denseRecords {
					b.Fatalf("scan saw %d rows", rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*denseRecords), "ns/row")
		})
	}
}
