package ctable

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/btree"
	"oldelephant/internal/catalog"
	"oldelephant/internal/engine"
	"oldelephant/internal/tpch"
)

// paperDesigns are the paper's D1, D2 and D4 over the TPC-H core tables.
var paperDesigns = []struct {
	name, sql      string
	cols, sortCols []string
}{
	{"d1", "SELECT l_shipdate, l_suppkey FROM lineitem", []string{"l_shipdate", "l_suppkey"}, []string{"l_shipdate", "l_suppkey"}},
	{"d2", "SELECT o_orderdate, l_suppkey, l_shipdate FROM lineitem, orders WHERE l_orderkey = o_orderkey",
		[]string{"o_orderdate", "l_suppkey", "l_shipdate"}, []string{"o_orderdate", "l_suppkey"}},
	{"d4", "SELECT l_returnflag, c_nationkey, l_extendedprice FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey",
		[]string{"l_returnflag", "c_nationkey", "l_extendedprice"}, []string{"l_returnflag"}},
}

// TestDesignBuildLayoutIsParallelismInvariant: a design build works its
// c-tables' loads out on the engine's parallelism but writes their pages in
// one order. D1, D2 and D4 over TPC-H SF 0.002, built at parallelism 1 and 2,
// in memory and durably (then reopened from their files), must leave every
// c-table the same page bytes (a checksum per page), the same tree anchors,
// leaf models included, and the same statistics.
func TestDesignBuildLayoutIsParallelismInvariant(t *testing.T) {
	var want []string
	for _, durable := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("durable=%v parallelism=%d", durable, workers)
			opts := engine.Options{Parallelism: workers}
			if durable {
				opts.DataDir = t.TempDir()
			}
			e, err := engine.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tpch.NewGenerator(0.002).LoadCore(e); err != nil {
				t.Fatal(err)
			}
			var tables []string
			for _, d := range paperDesigns {
				design, err := NewBuilder(e).Build(d.name, d.sql, d.cols, d.sortCols)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := NewBuilder(e).Verify(design); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, ct := range design.Columns {
					tables = append(tables, ct.Table)
				}
			}
			if durable {
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if e, err = engine.Open(opts); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]string, len(tables))
			for i, table := range tables {
				got[i] = layoutOf(t, e, table)
			}
			if durable {
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: c-table %s differs from the serial in-memory build:\n got  %s\n want %s", name, tables[i], got[i], want[i])
				}
			}
		}
	}
}

// layoutOf describes a table as it is stored: a checksum of every page of
// its clustered tree and of each index, each tree's anchors with its leaf
// model, and its statistics.
func layoutOf(t *testing.T, e *engine.Engine, table string) string {
	t.Helper()
	tb, err := e.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ix := range slices.Concat([]*catalog.Index{tb.Clustered}, tb.Secondary) {
		tree := ix.Tree()
		pages, err := tree.AllPages()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s pages", ix.Name, anchorsOf(tree.Anchors()))
		for _, id := range pages {
			data, err := e.Pager().PageData(id)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, " %d:%08x", id, crc32.ChecksumIEEE(data))
		}
		b.WriteString("; ")
	}
	s := tb.Stats
	fmt.Fprintf(&b, "stats %d rows %d bytes", s.RowCount, s.DataBytes)
	for c := range tb.Columns {
		lo, hi := s.MinMax(c)
		fmt.Fprintf(&b, " [%d distinct %d nulls %v %v %v]", s.DistinctCount(c), s.NullCount(c), lo.Kind, lo, hi)
	}
	return b.String()
}

func anchorsOf(a btree.Anchors) string {
	model := "no model"
	if a.Model != nil {
		model = fmt.Sprintf("model %+v", *a.Model)
	}
	return fmt.Sprintf("root %d first %d fence %x height %d count %d %s", a.Root, a.First, a.Fence, a.Height, a.Count, model)
}
