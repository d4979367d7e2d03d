package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// TestMetaRoundTripKeepsTreeAnchors: a catalog restored from its own meta, on
// the same pages, re-encodes byte for byte and reattaches every tree at the
// same root, leftmost leaf, fence, height, count and leaf model (meta version
// 9): a bulk-loaded table keeps the model its load fitted, and one whose
// leftmost leaf a statement split has none. A version-8 meta, which stores no
// leaf model, a version-7 one, which flags each table as clustered or not, a
// version-6 one, which stores no view definitions or freelist either, a version-5 one,
// which stores no fence either, and a version-4 one, which stores no leftmost
// leaf either, are refused. A one-leaf tree has no fence on either
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
	loaded, err := c.CreateTable("loaded", []Column{{Name: "id", Kind: value.KindInt}, {Name: "day", Kind: value.KindDate}}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 20000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewDate(int64(i % 365))}
	}
	if err := loaded.BulkLoad(rows, IndexDef{Name: "loaded_day", Columns: []string{"day"}}); err != nil {
		t.Fatal(err)
	}
	if loaded.Clustered.tree.Model() == nil {
		t.Fatal("a bulk load of 20,000 dense INT keys fitted no leaf model")
	}
	// Rows below every stored key split the bulk-loaded first leaf in place.
	for i := int64(-1); i >= -500; i-- {
		if err := tbl.Insert([]value.Value{value.NewInt(i), value.NewInt(-i % 50), value.NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	meta := c.EncodeMeta()
	if meta[0] != 9 {
		t.Fatalf("meta starts with version %d, want 9", meta[0])
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
			if am, bm := a.Model(), b.Model(); (am == nil) != (bm == nil) || am != nil && *am != *bm {
				t.Errorf("%s: restored leaf model %+v, want %+v", ix.Name, bm, am)
			}
			if orig == tbl && ix == orig.Clustered && a.Model() != nil {
				t.Errorf("%s: the split leftmost leaf left the leaf model %+v", ix.Name, *a.Model())
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
	for _, v := range []byte{4, 5, 6, 7, 8} {
		old := slices.Clone(meta)
		old[0] = v
		if err := New(c.Pager()).RestoreMeta(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("meta version %d not supported", v)) {
			t.Errorf("a version-%d meta restored with error %v", v, err)
		}
	}
}

// metaSeeds returns real metas: an empty catalog's, that of a keyless table
// with a unique secondary index, whose rows the uniquifier alone numbers, and
// last that of a catalog with a clustered table and its secondary index, a
// one-leaf table, a keyless table, a table that materializes a view, and the
// freelist a dropped table left. The clustered table's tree and the keyless
// table's unique index, both bulk-loaded on an INT, keep leaf models (meta
// version 9).
func metaSeeds(tb testing.TB) (*storage.Pager, [][]byte) {
	tb.Helper()
	c := New(storage.NewPager(0))
	seeds := [][]byte{c.EncodeMeta()}
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	cols := []Column{{Name: "id", Kind: value.KindInt}, {Name: "grp", Kind: value.KindString}, {Name: "amount", Kind: value.KindFloat}}
	rows := make([][]value.Value, 600)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("g%d", i%7)), value.NewFloat(float64(i) / 4)}
	}
	k := New(storage.NewPager(0))
	keyless, err := k.CreateTable("keyless", cols, nil)
	must(err)
	must(keyless.BulkLoad(rows, IndexDef{Name: "keyless_id", Columns: []string{"id"}, Unique: true}))
	must(keyless.Insert([]value.Value{value.NewInt(-1), value.NewString("g9"), value.Null()}))
	seeds = append(seeds, k.EncodeMeta())

	for _, name := range []string{"items", "dropped"} {
		tbl, err := c.CreateTable(name, cols, []string{"id"})
		must(err)
		must(tbl.BulkLoad(rows))
		_, err = c.CreateIndex(name+"_grp", name, []string{"grp"}, []string{"amount"}, false)
		must(err)
	}
	must(c.DropTable("dropped"))
	items, err := c.Table("items")
	must(err)
	if items.Clustered.tree.Model() == nil || keyless.Secondary[0].tree.Model() == nil {
		tb.Fatal("the bulk-loaded INT-keyed trees of the seeds fitted no leaf model")
	}
	one, err := c.CreateTable("one", cols[:1], []string{"id"})
	must(err)
	must(one.Insert([]value.Value{value.NewInt(1)}))
	heap, err := c.CreateTable("heap", cols, nil)
	must(err)
	must(heap.Insert([]value.Value{value.NewInt(1), value.Null(), value.NewFloat(2)}))
	view, err := c.CreateTable("grp_totals", []Column{{Name: "grp", Kind: value.KindString}, {Name: "total", Kind: value.KindFloat}}, []string{"grp"})
	must(err)
	view.Definition = "SELECT grp, SUM(amount) AS total FROM items GROUP BY grp"
	must(view.Insert([]value.Value{value.NewString("g1"), value.NewFloat(3)}))
	return c.Pager(), append(seeds, c.EncodeMeta())
}

// readFuzzBytes reads the one []byte of a checked-in fuzz corpus file.
func readFuzzBytes(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		return nil, fmt.Errorf("%s: not a corpus file of one []byte", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	return []byte(s), err
}

// craftedMetas are metas whose lengths or counts no real meta could hold: a
// name length of 2^63+17 (once a slice-bounds panic), an ords count of 2^40
// (once an out-of-memory crash) and a table count of 2^64-1 (once read as
// negative: an empty catalog and no error). The ords count is the clustered
// key's of table "t", which follows its one column, "id". Each is of the
// current version, so it reaches the count check; testdata/fuzz/FuzzRestoreMeta
// holds the same three inputs.
func craftedMetas() map[string][]byte {
	uv := binary.AppendUvarint
	table := append([]byte{metaVersion, 1, 1, 't', 0, 1, 2, 'i', 'd', byte(value.KindInt), 1, 'c'}, uv(nil, 1<<40)...)
	return map[string][]byte{
		"name length 2^63+17": uv([]byte{metaVersion, 1}, 1<<63+17),
		"ords count 2^40":     table,
		"table count 2^64-1":  uv([]byte{metaVersion}, 1<<64-1),
	}
}

// TestRestoreMetaRefusesCraftedCounts: a length or count larger than the
// bytes left, and trailing bytes after a whole meta, are errors; the catalog
// and the freelist keep what they held. Each crafted meta, the checked-in
// copies included, is refused by the count check, not at its version byte.
func TestRestoreMetaRefusesCraftedCounts(t *testing.T) {
	pager, seeds := metaSeeds(t)
	meta := seeds[len(seeds)-1]
	c := New(pager)
	if err := c.RestoreMeta(meta); err != nil {
		t.Fatal(err)
	}
	free := pager.FreeList()
	if len(free) == 0 {
		t.Fatal("the dropped table left no free page")
	}
	crafted := craftedMetas()
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzRestoreMeta", "*"))
	if err != nil || len(corpus) != len(crafted) {
		t.Fatalf("%d checked-in crafted metas (%v), want %d", len(corpus), err, len(crafted))
	}
	for _, path := range corpus {
		data, err := readFuzzBytes(path)
		if err != nil {
			t.Fatal(err)
		}
		crafted[path] = data
	}
	for name, data := range crafted {
		if err := c.RestoreMeta(data); err == nil || !strings.Contains(err.Error(), "exceeds the") {
			t.Errorf("%s: restored with error %v, want the count check's", name, err)
		}
	}
	if err := c.RestoreMeta(append(slices.Clone(meta), 0)); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Errorf("a meta with a trailing byte restored with error %v", err)
	}
	if again := c.EncodeMeta(); !bytes.Equal(again, meta) || !slices.Equal(pager.FreeList(), free) {
		t.Error("a refused meta changed the catalog or the freelist")
	}
}

// FuzzRestoreMeta: no input panics RestoreMeta or makes it allocate beyond
// its length, and an accepted input re-encodes to a meta that restores and
// re-encodes to the same bytes.
func FuzzRestoreMeta(f *testing.F) {
	pager, seeds := metaSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(pager)
		if err := c.RestoreMeta(data); err != nil {
			return
		}
		once := c.EncodeMeta()
		r := New(pager)
		if err := r.RestoreMeta(once); err != nil {
			t.Fatalf("a re-encoded meta is refused: %v", err)
		}
		if twice := r.EncodeMeta(); !bytes.Equal(twice, once) {
			t.Fatalf("a re-encoded meta of %d bytes re-encodes to %d different bytes", len(once), len(twice))
		}
	})
}
