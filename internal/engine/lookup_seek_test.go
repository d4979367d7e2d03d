package engine

import (
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/storage"
	"oldelephant/internal/value"
)

// TestOneRowLookupSeeks: a lookup of one primary key in a narrow bulk-loaded
// table seeks, serial and at P=2. items holds 20,000 rows on about 53 leaves
// under a 64-page pool; a descent (two random reads) would cost more than
// scanning them, which is what the lookup did before the table's tree kept a
// leaf model. Cold, the seek reads the leaf the model predicts at random and
// at most the model's window of leaves in sequence, no internal page, and the
// planner's estimate, which EXPLAIN ANALYZE prints beside what ran, is within
// 1.25x of that in the paper's disk units.
func TestOneRowLookupSeeks(t *testing.T) {
	e := New(Options{BufferPoolPages: 64})
	mustExec(t, e, "CREATE TABLE items (id INT, grp INT, amount FLOAT, PRIMARY KEY (id))")
	rows := make([][]value.Value, 20000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 50)), value.NewFloat(float64(i) / 4)}
	}
	if err := e.BulkLoad("items", rows); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Catalog().Table("items")
	if err != nil {
		t.Fatal(err)
	}
	model := tbl.Clustered.Tree().Model()
	if model == nil || tbl.Clustered.Tree().Height() < 2 {
		t.Fatalf("the bulk-loaded items tree has leaf model %+v at height %d", model, tbl.Clustered.Tree().Height())
	}
	const lookup = "SELECT grp, amount FROM items WHERE id = 10017"
	for _, par := range []int{1, 2} {
		e.ResetBufferPool()
		res, err := e.QueryWith(QueryOptions{Parallelism: par, NoCache: true}, lookup)
		if err != nil {
			t.Fatal(err)
		}
		io, est := res.Stats.IO, res.EstPages
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 17 {
			t.Fatalf("P=%d: %s answered %v", par, lookup, res.Rows)
		}
		if !strings.Contains(res.Plan, "ClusteredSeek(items on id)") || strings.Contains(res.Plan, "parallel") {
			t.Errorf("P=%d: plan %s, want a serial clustered seek", par, res.Plan)
		}
		if io.RandReads != 1 || io.SeqReads > int64(model.Window) {
			t.Errorf("P=%d: a cold lookup read %+v, want 1 random read and at most %d sequential", par, io, model.Window)
		}
		measured := float64(io.SeqReads) + storage.RandomReadCost*float64(io.RandReads)
		if est == nil {
			t.Fatalf("P=%d: the lookup carries no estimate", par)
		}
		if q := max(est.Cost()/measured, measured/est.Cost()); q > 1.25 {
			t.Errorf("P=%d: estimate %+v (%.1f) vs cold reads %+v (%.1f): q-error %.2f", par, est, est.Cost(), io, measured, q)
		}
	}
	e.ResetBufferPool()
	explain, err := e.Execute("EXPLAIN ANALYZE " + lookup)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range explain.Rows {
		lines = append(lines, r[0].S)
	}
	text := strings.Join(lines, "\n")
	io, est := explain.Stats.IO, explain.EstPages
	for _, want := range []string{
		"ClusteredSeek(items) ", "descents=0 predicted=1 hops=",
		fmt.Sprintf("page reads: %d (seq %d, rand 1)", io.PageReads, io.SeqReads),
		fmt.Sprintf("estimated cold: seq %.1f, rand 1.0", est.Seq),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, text)
		}
	}
	if est.Seq+1 < float64(io.SeqReads) || float64(io.SeqReads)+1 < est.Seq {
		t.Errorf("EXPLAIN ANALYZE estimated %.1f sequential reads, the run read %d:\n%s", est.Seq, io.SeqReads, text)
	}
}
