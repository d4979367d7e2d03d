package catalog

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/value"
)

// TestMetaRoundTripKeepsTreeAnchors: a catalog restored from its own meta, on
// the same pages, re-encodes byte for byte and reattaches every tree at the
// same root, leftmost leaf, fence, height and count (meta version 6); a
// version-5 meta, which stores no fence, and a version-4 one, which stores no
// leftmost leaf either, are refused. A one-leaf tree has no fence on either
// side of the round trip.
func TestMetaRoundTripKeepsTreeAnchors(t *testing.T) {
	c, tbl, _ := newSeekTable(t, 20000)
	tiny, err := c.CreateTable("tiny", []Column{{Name: "id", Kind: value.KindInt}}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.Insert([]value.Value{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	// Rows below every stored key split the bulk-loaded first leaf in place.
	for i := int64(-1); i >= -500; i-- {
		if err := tbl.Insert([]value.Value{value.NewInt(i), value.NewInt(-i % 50), value.NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	meta := c.EncodeMeta()
	if meta[0] != 6 {
		t.Fatalf("meta starts with version %d, want 6", meta[0])
	}
	r := New(c.Pager())
	if err := r.RestoreMeta(meta); err != nil {
		t.Fatal(err)
	}
	if again := r.EncodeMeta(); !bytes.Equal(again, meta) {
		t.Fatalf("restored catalog re-encodes to %d bytes that differ from its %d-byte meta", len(again), len(meta))
	}
	for _, orig := range c.Tables() {
		got, err := r.Table(orig.Name)
		if err != nil {
			t.Fatal(err)
		}
		indexes := append([]*Index{orig.Clustered}, orig.Secondary...)
		restored := append([]*Index{got.Clustered}, got.Secondary...)
		for i, ix := range indexes {
			a, b := ix.tree, restored[i].tree
			if a.RootPage() != b.RootPage() || a.FirstLeaf() != b.FirstLeaf() || a.Height() != b.Height() || a.Count() != b.Count() {
				t.Errorf("%s: restored root/first/height/count %d/%d/%d/%d, want %d/%d/%d/%d", ix.Name,
					b.RootPage(), b.FirstLeaf(), b.Height(), b.Count(), a.RootPage(), a.FirstLeaf(), a.Height(), a.Count())
			}
			if orig == tiny {
				if a.Height() != 1 || a.Fence() != nil || b.Fence() != nil {
					t.Errorf("%s: height %d, fence %x, restored fence %x; want a one-leaf tree with no fence", ix.Name, a.Height(), a.Fence(), b.Fence())
				}
				continue
			}
			if !bytes.Equal(a.Fence(), b.Fence()) || a.Fence() == nil {
				t.Errorf("%s: restored fence %x, want %x", ix.Name, b.Fence(), a.Fence())
			}
			if a.Height() < 2 || a.FirstLeaf() == a.RootPage() {
				t.Errorf("%s: height %d, leftmost leaf %d, root %d: the test needs a tree whose first leaf is no root", ix.Name, a.Height(), a.FirstLeaf(), a.RootPage())
			}
		}
	}
	for _, v := range []byte{4, 5} {
		old := slices.Clone(meta)
		old[0] = v
		if err := New(c.Pager()).RestoreMeta(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("meta version %d not supported", v)) {
			t.Errorf("a version-%d meta restored with error %v", v, err)
		}
	}
}
