// Command elephantbench regenerates the paper's evaluation: Figure 2 and the
// three summary tables, over a freshly generated TPC-H database.
//
// Usage:
//
//	elephantbench -sf 0.01 -figure2            # the seven panels of Figure 2
//	elephantbench -sf 0.01 -table speedup      # Section 1 table (Row vs ColOpt)
//	elephantbench -sf 0.01 -table mv           # Section 2.1 table (Row(MV) vs ColOpt)
//	elephantbench -sf 0.01 -table ctable       # Section 2.2.4 table (Row(Col) vs ColOpt)
//	elephantbench -sf 0.01 -all                # everything
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"oldelephant/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("elephantbench: ")
	var (
		sf      = flag.Float64("sf", 0.01, "TPC-H scale factor (the paper uses 10)")
		figure2 = flag.Bool("figure2", false, "reproduce Figure 2 (all queries, all strategies, selectivity sweep)")
		table   = flag.String("table", "", "reproduce one summary table: speedup, mv or ctable")
		all     = flag.Bool("all", false, "reproduce Figure 2 and every table")
		sels    = flag.String("selectivities", "0.01,0.1,0.5,1.0", "comma-separated selectivities for the swept queries")
	)
	flag.Parse()
	if !*figure2 && *table == "" && !*all {
		flag.Usage()
		os.Exit(2)
	}
	if *table != "" && !*all && !knownTable(*table) {
		log.Fatalf("unknown table %q (want speedup, mv or ctable)", *table)
	}
	cfg := bench.DefaultConfig()
	cfg.SF = *sf
	cfg.Selectivities = parseSelectivities(*sels)
	fmt.Printf("Loading TPC-H at scale factor %g and building all physical designs...\n", *sf)
	h, err := bench.NewHarness(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Loaded: %d total pages across base tables, views, c-tables.\n\n", h.Engine.TotalDataPages())

	if *figure2 || *all {
		ms, err := h.Figure2()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatFigure2(ms))
	}
	for _, t := range bench.RatioTables {
		if !*all && t.Name != *table {
			continue
		}
		text, err := h.FormatTable(t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(text)
	}
}

func parseSelectivities(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 || v > 1 {
			log.Fatalf("bad selectivity %q", part)
		}
		out = append(out, v)
	}
	return out
}

func knownTable(name string) bool {
	for _, t := range bench.RatioTables {
		if t.Name == name {
			return true
		}
	}
	return false
}
