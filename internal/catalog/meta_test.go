package catalog

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/value"
)

// TestMetaRoundTripKeepsTreeAnchors: a catalog restored from its own meta, on
// the same pages, re-encodes byte for byte and reattaches every tree at the
// same root, leftmost leaf, height and count (meta version 5); a version-4
// meta, which stores no leftmost leaf, is refused.
func TestMetaRoundTripKeepsTreeAnchors(t *testing.T) {
	c, tbl, _ := newSeekTable(t, 20000)
	// Rows below every stored key split the bulk-loaded first leaf in place.
	for i := int64(-1); i >= -500; i-- {
		if err := tbl.Insert([]value.Value{value.NewInt(i), value.NewInt(-i % 50), value.NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	meta := c.EncodeMeta()
	if meta[0] != 5 {
		t.Fatalf("meta starts with version %d, want 5", meta[0])
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
			if a.Height() < 2 || a.FirstLeaf() == a.RootPage() {
				t.Errorf("%s: height %d, leftmost leaf %d, root %d: the test needs a tree whose first leaf is no root", ix.Name, a.Height(), a.FirstLeaf(), a.RootPage())
			}
		}
	}
	old := slices.Clone(meta)
	old[0] = 4
	if err := New(c.Pager()).RestoreMeta(old); err == nil || !strings.Contains(err.Error(), "meta version 4 not supported") {
		t.Errorf("a version-4 meta restored with error %v", err)
	}
}
