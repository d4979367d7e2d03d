// Benchmarks for the paper's discussion sections. Figure 2 and the three
// summary tables are regenerated by cmd/elephantbench.
//
//	BenchmarkIndexIntersection          — Section 2.2.3 index-intersection strategy
//	BenchmarkStorageOverheadAblation    — Section 3 storage-layer discussion
//
// Page counts and ratios are attached to the benchmark output as custom
// metrics (pages/op, ctable-pages/op, cstore-pages/op, header-share).
package elephant

import (
	"testing"

	"oldelephant/internal/colstore"
	"oldelephant/internal/core/ctable"
	"oldelephant/internal/engine"
	"oldelephant/internal/storage"
	"oldelephant/internal/tpch"
	"oldelephant/internal/value"
)

// BenchmarkIndexIntersection reproduces the Section 2.2.3 discussion of
// "additional index-based strategies": predicates on columns deep in the
// sort order answered by seeking the v indexes of two c-tables independently
// and intersecting, versus scanning.
func BenchmarkIndexIntersection(b *testing.B) {
	db := Open(Options{})
	mustExec := func(q string) {
		if _, err := db.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
	mustExec("CREATE TABLE wide (a INT, b INT, c INT, d INT, PRIMARY KEY (a, b, c, d))")
	var rows []Row
	for i := 0; i < 50000; i++ {
		rows = append(rows, Row{
			value.NewInt(int64(i / 2500)),
			value.NewInt(int64(i / 250 % 10)),
			value.NewInt(int64(i % 100)),
			value.NewInt(int64(i % 61)),
		})
	}
	if err := db.BulkLoad("wide", rows); err != nil {
		b.Fatal(err)
	}
	design, err := db.BuildCTableDesign("w", "SELECT a, b, c, d FROM wide",
		[]string{"a", "b", "c", "d"}, []string{"a", "b", "c", "d"})
	if err != nil {
		b.Fatal(err)
	}
	// The paper's example: predicates on c and d (deep in the sort order).
	// With c-tables the v indexes answer it; a C-store would scan both columns.
	// The band predicate degenerates to an equality when the c column of the
	// design uses the dense representation (runs of length one).
	query := "SELECT COUNT(*) FROM wide WHERE c = 10 AND d = 20"
	band := "TD.f BETWEEN TC.f AND TC.f + TC.c - 1"
	if ct, ok := design.Column("c"); ok && ct.Dense {
		band = "TD.f = TC.f"
	}
	ctQuery := "SELECT COUNT(*) FROM w_c TC, w_d TD WHERE TC.v = 10 AND TD.v = 20 AND " + band
	b.Run("row-store-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.ResetBufferPool()
			res, err := db.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.IO.PageReads), "pages/op")
		}
	})
	b.Run("ctable-index-intersection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.ResetBufferPool()
			res, err := db.Query(ctQuery)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.IO.PageReads), "pages/op")
		}
	})
}

// BenchmarkStorageOverheadAblation quantifies the Section 3 "storage layer"
// observation: the row store's per-tuple overhead roughly doubles the space
// of c-tables compared with the native compressed columns. It builds the D1
// design and reports its page count next to the compressed column-store
// footprint, and the share of the c-tables' leaf bytes that is the 9-byte
// tuple header (storage.TupleOverhead × rows ÷ LeafFootprint).
func BenchmarkStorageOverheadAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Options{})
		if err := tpch.NewGenerator(0.002).LoadCore(e); err != nil {
			b.Fatal(err)
		}
		if _, err := ctable.NewBuilder(e).Build("d1", "SELECT l_shipdate, l_suppkey FROM lineitem",
			[]string{"l_shipdate", "l_suppkey"}, []string{"l_shipdate", "l_suppkey"}); err != nil {
			b.Fatal(err)
		}
		var pages, leafBytes int
		var rows int64
		for _, name := range []string{"d1_l_shipdate", "d1_l_suppkey"} {
			tb, err := e.Catalog().Table(name)
			if err != nil {
				b.Fatal(err)
			}
			n, err := tb.DataPages()
			if err != nil {
				b.Fatal(err)
			}
			tree := tb.Clustered.Tree()
			footprint, err := tree.LeafFootprint()
			if err != nil {
				b.Fatal(err)
			}
			pages += n
			leafBytes += footprint
			rows += tree.Count()
		}
		res, err := e.Query("SELECT l_shipdate, l_suppkey FROM lineitem")
		if err != nil {
			b.Fatal(err)
		}
		proj, err := colstore.BuildProjection("p1", []string{"l_shipdate", "l_suppkey"},
			[]value.Kind{value.KindDate, value.KindInt}, []string{"l_shipdate", "l_suppkey"}, res.Rows)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pages), "ctable-pages/op")
		b.ReportMetric(float64(proj.TotalPages()), "cstore-pages/op")
		b.ReportMetric(float64(storage.TupleOverhead*rows)/float64(leafBytes), "header-share")
	}
}
