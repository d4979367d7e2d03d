// This example walks through the paper's central contribution: building
// c-tables (Section 2.2.1) for the D1 projection over TPC-H lineitem,
// mechanically rewriting Q3 onto them (Section 2.2.2), and comparing the
// result and the I/O of the original and rewritten queries.
package main

import (
	"fmt"
	"log"

	elephant "oldelephant"
)

func main() {
	db := elephant.Open(elephant.Options{})
	if err := db.LoadTPCH(0.005); err != nil {
		log.Fatal(err)
	}

	// Build the c-tables of D1: (lineitem | l_shipdate, l_suppkey).
	design, err := db.BuildCTableDesign("d1",
		"SELECT l_shipdate, l_suppkey FROM lineitem",
		[]string{"l_shipdate", "l_suppkey"},
		[]string{"l_shipdate", "l_suppkey"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Design %s over %d source rows:\n", design.Name, design.NumRows)
	for _, ct := range design.Columns {
		repr := "(f, v, c) runs"
		if ct.Dense {
			repr = "(f, v) dense"
		}
		fmt.Printf("  %-18s -> table %-18s %8d rows  %s\n", ct.Column, ct.Table, ct.Runs, repr)
	}

	// The paper's Q3 with an arbitrary parameter.
	q3 := "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1997-06-01' GROUP BY l_suppkey"
	rw := elephant.NewRewriter(design)
	rewritten, err := rw.RewriteSQL(q3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nOriginal: ", q3)
	fmt.Println("Rewritten:", rewritten)

	// Run both cold and compare.
	db.ResetBufferPool()
	orig, err := db.Query(q3)
	if err != nil {
		log.Fatal(err)
	}
	db.ResetBufferPool()
	rew, err := db.Query(rewritten)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %8s %12s %s\n", "strategy", "groups", "pages read", "plan")
	fmt.Printf("%-10s %8d %12d %s\n", "Row", len(orig.Rows), orig.Stats.IO.PageReads, orig.Plan)
	fmt.Printf("%-10s %8d %12d %s\n", "Row(Col)", len(rew.Rows), rew.Stats.IO.PageReads, rew.Plan)

	// A query that groups by the filtered leading column needs its values,
	// so it keeps the plain band-join chain of Figure 4(a) with the filter on
	// the leading c-table.
	byDay := "SELECT l_shipdate, l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '1997-06-01' GROUP BY l_shipdate, l_suppkey"
	plain, err := rw.RewriteSQL(byDay)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nGrouped by the leading column (Figure 4(a)):", byDay)
	fmt.Println("Rewritten:", plain)
}
