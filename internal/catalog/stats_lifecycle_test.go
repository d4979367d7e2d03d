package catalog_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/core/ctable"
	"oldelephant/internal/engine"
	"oldelephant/internal/storage/faultfs"
	"oldelephant/internal/tpch"
	"oldelephant/internal/value"
)

// loadPaperSchema loads TPC-H at SF 0.002, one materialized view and one
// c-table design into e.
func loadPaperSchema(t *testing.T, e *engine.Engine) {
	t.Helper()
	if err := tpch.NewGenerator(0.002).LoadAll(e); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("CREATE MATERIALIZED VIEW flags AS SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS qty, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag, l_linestatus"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctable.NewBuilder(e).Build("d1", "SELECT l_shipdate, l_suppkey FROM lineitem",
		[]string{"l_shipdate", "l_suppkey"}, []string{"l_shipdate", "l_suppkey"}); err != nil {
		t.Fatal(err)
	}
}

// tableStats renders what the planner reads of one table's statistics: its
// row count and bytes, and every column's distinct count, nulls and bounds
// (kind and bits).
func tableStats(tbl *catalog.Table) string {
	s := tbl.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d rows, %d bytes\n", tbl.Name, s.RowCount, s.DataBytes)
	bound := func(v value.Value) string {
		return fmt.Sprintf("%d/%d/%x/%q", v.Kind, v.I, math.Float64bits(v.F), v.S)
	}
	for c, col := range tbl.Columns {
		lo, hi := s.MinMax(c)
		fmt.Fprintf(&b, "  %s: %d distinct, %d nulls, %s..%s\n", col.Name, s.DistinctCount(c), s.NullCount(c), bound(lo), bound(hi))
	}
	return b.String()
}

// catalogStats renders every table's statistics, and the tables whose
// distinct sketches hold memory.
func catalogStats(e *engine.Engine) (stats string, sketched []string) {
	var b strings.Builder
	for _, tbl := range e.Catalog().Tables() {
		b.WriteString(tableStats(tbl))
		if tbl.Stats.SketchBytes() > 0 {
			sketched = append(sketched, tbl.Name)
		}
	}
	return b.String(), sketched
}

// lineDiff lists the lines in which two renderings of the same tables differ.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			fmt.Fprintf(&b, "  got  %q\n  want %q\n", g[min(i, len(g)-1)], w[min(i, len(w)-1)])
		}
	}
	return b.String()
}

// TestDurableStatsAgreeAfterLoadRecoveryAndRollback: a table's statistics
// have one lifecycle. After a load of TPC-H, a view and a c-table, every
// column reports the same distinct count, nulls and bounds, and every table
// the same row count and bytes, in memory, after a clean reopen of a durable
// copy, after replaying its log from a crash image and after a refused
// statement's rollback; and no table holds a distinct sketch in any of them.
// An INSERT of new values into one loaded table gives that table, and only
// it, a live sketch, and leaves it with the counts the reopened copy reports
// after the same INSERT.
func TestDurableStatsAgreeAfterLoadRecoveryAndRollback(t *testing.T) {
	mem := engine.New(engine.Options{})
	defer mem.Close()
	loadPaperSchema(t, mem)
	fs := faultfs.New(7)
	durable, err := engine.Open(engine.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	loadPaperSchema(t, durable)
	crashed := fs.Clone()
	crashed.Crash()
	replayed, err := engine.Open(engine.Options{FS: crashed.Recovered()})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := engine.Open(engine.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	loaded, sketched := catalogStats(mem)
	if len(sketched) > 0 {
		t.Errorf("after a load, tables %v hold distinct sketches", sketched)
	}
	for _, tbl := range []string{"lineitem", "flags", ctable.TableName("d1", "l_shipdate")} {
		if !strings.Contains(loaded, tbl+":") {
			t.Fatalf("the loaded catalog has no table %s", tbl)
		}
	}
	check := func(state string, e *engine.Engine) {
		t.Helper()
		got, sketched := catalogStats(e)
		if got != loaded {
			t.Errorf("%s: statistics differ from the in-memory load's:\n%s", state, lineDiff(got, loaded))
		}
		if len(sketched) > 0 {
			t.Errorf("%s: tables %v hold distinct sketches", state, sketched)
		}
	}
	check("clean reopen", reopened)
	check("log replay", replayed)
	// Refused at its second row, after the first is stored.
	if _, err := mem.Execute("INSERT INTO nation VALUES (90, 'ATLANTIS', 9), (91, 'LEMURIA')"); err == nil {
		t.Fatal("an INSERT row of two values into three columns was accepted")
	}
	check("rollback", mem)

	for _, e := range []*engine.Engine{mem, reopened} {
		if _, err := e.Execute("INSERT INTO nation VALUES (90, 'ATLANTIS', 9)"); err != nil {
			t.Fatal(err)
		}
	}
	got, sketched := catalogStats(mem)
	if len(sketched) != 1 || sketched[0] != "nation" {
		t.Errorf("after an INSERT into nation, tables %v hold distinct sketches, want [nation]", sketched)
	}
	if want, _ := catalogStats(reopened); got != want {
		t.Errorf("after the same INSERT, the loaded and the reopened statistics differ:\n%s", lineDiff(got, want))
	}
}
