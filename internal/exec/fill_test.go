package exec

import (
	"testing"

	"oldelephant/internal/value"
)

// TestFillReadsOnlyTheSpansItProjects pins the fill's span discipline under
// the store-once layout: a projection of clustered-key columns is answered
// from tree key bytes and never parses a payload, duplicates' uniquifiers
// included. Every payload of the test lineitem (clustered on l_shipdate,
// l_suppkey, every key stored three or four times) is replaced with bytes no
// tuple decoder accepts; the key-only batch scan must still return every key,
// while any projection reaching into the payload — and the row protocol's
// full decode — must fail rather than invent values.
func TestFillReadsOnlyTheSpansItProjects(t *testing.T) {
	_, lineitem, _ := buildTestDB(t)
	want := drainVec(t, NewSeqScan(lineitem, []int{2, 1}))

	tree := lineitem.Clustered.Tree()
	var keys [][]byte
	for it := tree.Scan(); it.Next(); {
		keys = append(keys, append([]byte(nil), it.Key()...))
	}
	for _, k := range keys {
		if ok, err := tree.Delete(k); err != nil || !ok {
			t.Fatalf("delete of key %x: %v %v", k, ok, err)
		}
		if err := tree.Insert(k, []byte{0x07}); err != nil { // claims 7 fields, holds none
			t.Fatal(err)
		}
	}

	got := drainVec(t, NewSeqScan(lineitem, []int{2, 1}))
	if len(got) != len(want) || len(got) != 1000 {
		t.Fatalf("key-only scan returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] || got[i][j].Kind == value.KindNull {
				t.Fatalf("row %d col %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	for _, cols := range [][]int{{0}, {2, 4}, nil} {
		scan := NewSeqScan(lineitem, cols)
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := scan.NextBatch(); err == nil {
			t.Errorf("batch scan of columns %v decoded a poisoned payload", cols)
		}
		scan.Close()
	}
	scan := NewSeqScan(lineitem, []int{2, 1})
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scan.Next(); err == nil {
		t.Error("row protocol (full decode) accepted a poisoned payload")
	}
	scan.Close()
}
