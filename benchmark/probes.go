package main

import (
	"fmt"
	"math/rand"
	"time"

	elephant "oldelephant"
	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

// Single-layer probes of the traced run: each times one public entry point
// of one layer, outside the window.

const probeReps = 15

// timeUS returns the lower-quartile time of reps calls, in microseconds.
func timeUS(reps int, call func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := call(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start))/1e3)
	}
	return p25(xs), nil
}

const seekFormat = "SELECT o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d"

// orderKeys reads the generated order keys; the benchmark knows the data only
// through the program's answers.
func orderKeys(db *elephant.DB) ([]int64, error) {
	res, err := db.Query("SELECT o_orderkey FROM orders")
	if err != nil {
		return nil, err
	}
	keys := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		keys[i] = row[0].I
	}
	return keys, nil
}

// sampleKeys draws n distinct keys in a seeded order.
func sampleKeys(keys []int64, n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed*104729 + 5))
	if n > len(keys) {
		n = len(keys)
	}
	out := make([]int64, n)
	for i, j := range rng.Perm(len(keys))[:n] {
		out[i] = keys[j]
	}
	return out
}

type seekProbe struct {
	coldUS, preparedUS float64
	pagesPerSeek       float64
	samples            int
}

// probeSeek times the point seek on orders in process: parsed, planned and
// executed from text each time, against a prepared handle leasing its plan.
func probeSeek(db *elephant.DB, seed int64) (seekProbe, error) {
	all, err := orderKeys(db)
	if err != nil {
		return seekProbe{}, err
	}
	keys := sampleKeys(all, 256, seed)
	var cold, prepared []float64
	var pages float64
	for _, k := range keys {
		text := fmt.Sprintf(seekFormat, k)
		p, err := db.Prepare(text)
		if err != nil {
			return seekProbe{}, err
		}
		if _, err := db.QueryPrepared(engine.QueryOptions{}, p); err != nil {
			return seekProbe{}, err
		}
		start := time.Now()
		if _, err := db.QueryPrepared(engine.QueryOptions{}, p); err != nil {
			return seekProbe{}, err
		}
		prepared = append(prepared, float64(time.Since(start))/1e3)
		start = time.Now()
		if _, err := db.QueryWith(engine.QueryOptions{NoCache: true}, text); err != nil {
			return seekProbe{}, err
		}
		cold = append(cold, float64(time.Since(start))/1e3)
		db.ResetBufferPool()
		res, err := db.QueryWith(coldSerial, text)
		if err != nil {
			return seekProbe{}, err
		}
		pages += float64(res.Stats.IO.PageReads)
	}
	return seekProbe{coldUS: p25(cold), preparedUS: p25(prepared),
		pagesPerSeek: pages / float64(len(keys)), samples: len(keys)}, nil
}

// probeScan times a serial filter-count over all of lineitem: the floor of
// tuple decode under every scan.
func probeScan(db *elephant.DB) (nsPerRow float64, rows int, err error) {
	const text = "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 0"
	var count int64
	us, err := timeUS(5, func() error {
		res, err := db.QueryWith(engine.QueryOptions{Parallelism: 1}, text)
		if err == nil {
			count = res.Rows[0][0].I
		}
		return err
	})
	if err != nil || count == 0 {
		return 0, 0, fmt.Errorf("scan probe: %d rows, %v", count, err)
	}
	return us * 1e3 / float64(count), int(count), nil
}

// probeParsePlan times parsing and planning of the texts the engine is given.
// Explain parses and plans, so planning is its time less the parse.
func probeParsePlan(db *elephant.DB, texts []string, r *report) error {
	var parse, plan []float64
	for _, text := range texts {
		parseUS, err := timeUS(probeReps, func() error { _, err := db.Prepare(text); return err })
		if err != nil {
			return fmt.Errorf("parse probe: %w", err)
		}
		explainUS, err := timeUS(probeReps, func() error { _, err := db.Explain(text); return err })
		if err != nil {
			return fmt.Errorf("plan probe: %w", err)
		}
		parse = append(parse, parseUS)
		plan = append(plan, max(0, explainUS-parseUS))
	}
	r.set("sql.parse_us", mean(parse), len(texts)*probeReps)
	r.set("plan.plan_us", mean(plan), len(texts)*probeReps)
	return nil
}

// probeFrontEnd times the strategy's own rewriting step, per statement, and
// returns the texts the engine is given.
func (d *database) probeFrontEnd(r *report) ([]string, error) {
	var texts []string
	var us, bytes []float64
	for i := range d.stmts {
		s := &d.stmts[i]
		var text string
		t, err := timeUS(probeReps, func() (err error) {
			text, err = d.engineText(s, nil, 0)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("rewrite probe, %s: %w", s.name, err)
		}
		texts = append(texts, text)
		us = append(us, t)
		bytes = append(bytes, float64(len(text)))
	}
	n := len(d.stmts) * probeReps
	matchUS, matched, rewriteUS, sqlBytes := 0.0, 0.0, 0.0, 0.0
	switch d.workload {
	case "paper_mv":
		matchUS, matched = mean(us), 1 // engineText fails on a statement no view matches
	case "paper_rowcol":
		rewriteUS, sqlBytes = mean(us), mean(bytes)
	}
	r.set("matview.match_us", matchUS, n)
	r.set("matview.matched_share", matched, len(d.stmts))
	r.set("rewrite.rewrite_us", rewriteUS, n)
	r.set("rewrite.sql_bytes", sqlBytes, len(d.stmts))
	return texts, nil
}

type colOptProbe struct {
	meanCost float64 // the ColOpt bound, mean over the pass's statements
	over     float64 // geometric mean of workload ÷ ColOpt at selectivity 0.1
}

// probeColOpt computes the paper's ColOpt lower bound for every statement: a
// column store reads the selected fraction of just the columns the query
// needs, one random access to reach each column and the rest sequentially.
func (d *database) probeColOpt(c counted, extra *[]string) (colOptProbe, error) {
	proj := make(map[string]*elephant.ColumnProjection)
	for _, def := range paperDesigns {
		p, err := d.db.BuildColumnProjection(def.name, def.sql, def.columns, def.kinds, def.sortCols)
		if err != nil {
			return colOptProbe{}, fmt.Errorf("build projection %s: %w", def.name, err)
		}
		proj[def.name] = p
	}
	var bounds, ratios []float64
	for i := range d.stmts {
		s := &d.stmts[i]
		p := proj[s.query.design]
		lo, hi, loIncl := s.param, value.Null(), false // column > literal
		switch {
		case s.query.column == "":
			lo, hi, loIncl = value.NewString("R"), value.NewString("R"), true
		case !s.query.swept:
			hi, loIncl = s.param, true
		}
		frac, err := p.LeadingRangeFraction(lo, hi, loIncl, true)
		if err != nil {
			return colOptProbe{}, err
		}
		pages, err := p.ColOptPages(s.query.cols, frac)
		if err != nil {
			return colOptProbe{}, err
		}
		cols := int64(len(s.query.cols))
		pages = max(pages, cols)
		bound := float64(pages-cols) + randomReadCost*float64(cols)
		bounds = append(bounds, bound)
		if s.sel == 0.1 || !s.query.swept {
			ratios = append(ratios, c.cost[s.name]/bound)
			*extra = append(*extra, fmt.Sprintf("over ColOpt, %s: %.0f pages over %.0f = %.3f",
				s.name, c.cost[s.name], bound, c.cost[s.name]/bound))
		}
	}
	return colOptProbe{meanCost: mean(bounds), over: geoMean(ratios)}, nil
}
