package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	elephant "oldelephant"
	"oldelephant/internal/engine"
)

// runConfig is one run's arguments. sf is a field the smoke test sets; the
// command line cannot.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sf       float64
	outDir   string
}

// tally counts operations and keeps the first few failure descriptions.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// outcome is what a run hands back to main.
type outcome struct {
	tally  tally
	report *report
	extra  []string // diagnostic lines printed after the metrics
}

// references holds each statement's answer from the warm pass: the digest
// every timed answer is held against, and the rows the oracle is held against
// after the window.
type references struct {
	digests map[string]digest
	rows    map[string][]elephant.Row
}

// warm runs every distinct statement once, untimed for latency, so plans,
// parsed leaves and the buffer pool are as a running system has them.
func (d *database) warm() (*references, error) {
	refs := &references{digests: make(map[string]digest), rows: make(map[string][]elephant.Row)}
	for i := range d.stmts {
		s := &d.stmts[i]
		res, err := d.run(s)
		if err != nil {
			return nil, fmt.Errorf("warm pass, %s: %w", s.name, err)
		}
		refs.digests[s.name] = digestRows(res.Rows)
		refs.rows[s.name] = res.Rows
	}
	return refs, nil
}

// phase is the timings of one stretch of whole passes, and the shape of the
// workload that made them.
type phase struct {
	selective, bulk     []string // the statements of each latency class
	callers, opsPerPass int

	lat    map[string][]float64 // ms per statement
	passes []float64            // ms: the sum of a pass's latencies
	kernel []float64            // ms: the reference kernel, once after each pass
	ops    int
	cpuS   float64 // process CPU over the passes, the kernel's excluded
	allocB uint64
}

// passes runs whole passes until the time is up: the distinct statements once
// each in a fresh seeded order, so machine drift falls on every statement
// alike. The timer covers the call only; digests are computed outside it.
func (d *database) passes(seconds float64, rng *rand.Rand, refs *references, t *tally,
	exec func(s *statement, op int) (*elephant.Result, error)) phase {
	p := phase{selective: classMembers(d.stmts, selective), bulk: classMembers(d.stmts, bulk),
		callers: 1, opsPerPass: len(d.stmts), lat: make(map[string][]float64)}
	alloc0 := totalAlloc()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(p.passes) == 0 || time.Now().Before(deadline) {
		var pass float64
		cpu0 := cpuSeconds()
		for _, i := range rng.Perm(len(d.stmts)) {
			s := &d.stmts[i]
			p.ops++
			start := time.Now()
			res, err := exec(s, p.ops)
			ms := float64(time.Since(start)) / 1e6
			p.lat[s.name] = append(p.lat[s.name], ms)
			pass += ms
			switch {
			case err != nil:
				t.fail("%s: %v", s.name, err)
			case !digestRows(res.Rows).equal(refs.digests[s.name]):
				t.fail("%s: answer differs from the warm pass's", s.name)
			default:
				t.ok()
			}
		}
		p.cpuS += cpuSeconds() - cpu0
		p.passes = append(p.passes, pass)
		p.kernel = append(p.kernel, refKernelMS())
	}
	p.allocB = totalAlloc() - alloc0
	return p
}

// timings are what a stopwatch read: for each latency class the mean of its
// statements' lower-quartile latencies, and operations per second at the
// lower-quartile pass time.
func (p phase) timings() (selMS, bulkMS, opsPerS float64) {
	return classMean(p.lat, p.selective, p25), classMean(p.lat, p.bulk, p25),
		float64(p.callers*p.opsPerPass) / (p25(p.passes) / 1000)
}

// opMS is the lower-quartile pass time per operation, by which two phases of
// one run are compared.
func (p phase) opMS() float64 { return p25(p.passes) / float64(p.opsPerPass) }

// diagnostics is the line printed under a run's end-to-end metrics: how many
// passes, how noisy the machine was, what the reference kernel read, and the
// window's timings, which are per-layer metrics (bench.*) of the traced run.
func (p phase) diagnostics() string {
	sel, blk, ops := p.timings()
	return fmt.Sprintf("passes %d  pass_iqr_share %.4f  ref_kernel_ms %.3f  p25: selective_ms %.4f bulk_ms %.4f ops_per_s %.2f  p50: selective_ms %.4f bulk_ms %.4f",
		len(p.passes), iqrShare(p.passes), p25(p.kernel), sel, blk, ops,
		classMean(p.lat, p.selective, median), classMean(p.lat, p.bulk, median))
}

// counted is the paper's cost of one pass: every distinct statement once from
// one caller with a cold buffer pool, serial and unplanned, so the page
// counters repeat exactly for a seed.
type counted struct {
	cost                   map[string]float64 // by statement, in sequential-page equivalents
	reads, seq, rand, hits float64            // summed over the pass
}

var coldSerial = engine.QueryOptions{Parallelism: 1, NoCache: true}

// add runs one statement cold and charges it the paper's disk model: a 7200
// RPM drive's sequential page read and random access.
func (c *counted) add(db *elephant.DB, name string, t *tally, run func() (*elephant.Result, error)) {
	db.ResetBufferPool()
	res, err := run()
	if err != nil {
		t.fail("counted pass, %s: %v", name, err)
		return
	}
	t.ok()
	io := res.Stats.IO
	c.cost[name] = float64(io.SeqReads) + randomReadCost*float64(io.RandReads)
	c.reads += float64(io.PageReads)
	c.seq += float64(io.SeqReads)
	c.rand += float64(io.RandReads)
	c.hits += float64(io.CacheHits)
}

func (d *database) countedPass(t *tally) counted {
	c := counted{cost: make(map[string]float64)}
	for i := range d.stmts {
		s := &d.stmts[i]
		c.add(d.db, s.name, t, func() (*elephant.Result, error) { return d.layered(s, coldSerial, nil, 0) })
	}
	return c
}

func (c counted) meanCost() float64 {
	var xs []float64
	for _, v := range c.cost {
		xs = append(xs, v)
	}
	return mean(xs)
}

// setStorage reports the counted pass's page counts per operation.
func (c counted) setStorage(r *report) {
	n := len(c.cost)
	r.set("storage.page_reads", c.reads/float64(n), n)
	r.set("storage.seq_reads", c.seq/float64(n), n)
	r.set("storage.rand_reads", c.rand/float64(n), n)
	r.set("storage.cache_hits", c.hits/float64(n), n)
}

// layered runs a statement as separate calls into each layer, so that each
// can be timed and the engine call can be given options. rec may be nil.
func (d *database) layered(s *statement, opts engine.QueryOptions, rec *recorder, op int) (*elephant.Result, error) {
	root := rec.root(op, "op")
	defer rec.end(root)
	text, err := d.engineText(s, rec, root)
	if err != nil {
		return nil, err
	}
	call := rec.child(root, "engine.QueryWith")
	res, err := d.db.QueryWith(opts, text)
	rec.end(call)
	if err == nil {
		rec.graft(call, res.Trace)
	}
	return res, err
}

// engineText is the SQL the engine is given for a statement: the base-table
// text, the view rewriting or the c-table rewriting.
func (d *database) engineText(s *statement, rec *recorder, root int) (string, error) {
	switch d.workload {
	case "paper_mv":
		call := rec.child(root, "matview.RewriteSQL")
		text, used, err := d.db.Views().RewriteSQL(s.sql)
		rec.end(call)
		if err == nil && !used {
			err = errNoView
		}
		return text, err
	case "paper_rowcol":
		call := rec.child(root, "rewrite.RewriteSQL")
		text, err := elephant.NewRewriter(d.designs[s.query.design]).RewriteSQL(s.sql)
		rec.end(call)
		return text, err
	default:
		return s.sql, nil
	}
}

// paperOracle holds the reference answers against a second opinion: for
// paper_row a second engine, row-at-a-time and serial, over the same
// generated data; for the physical designs the base-table query on the same
// database. It runs after the window so it never shares the heap or the RSS
// high-water mark with the measured run.
func (d *database) paperOracle(sf float64, refs *references, t *tally) error {
	oracle := d.db
	if d.workload == "paper_row" {
		oracle = elephant.Open(elephant.Options{DisableVectorized: true, Parallelism: 1})
		if err := oracle.LoadTPCH(sf); err != nil {
			return fmt.Errorf("oracle: load TPC-H: %w", err)
		}
	}
	for i := range d.stmts {
		s := &d.stmts[i]
		want, err := oracle.Query(s.sql)
		if err != nil {
			return fmt.Errorf("oracle, %s: %w", s.name, err)
		}
		if err := sameRows(refs.rows[s.name], want.Rows); err != nil {
			t.fail("%s differs from the oracle: %v", s.name, err)
		} else {
			t.ok()
		}
	}
	return nil
}

func runPaper(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return runPaperTraced(cfg)
	}
	out := &outcome{report: newReport()}
	start := time.Now()
	d, err := buildPaper(cfg.workload, cfg.sf, cfg.seed)
	if err != nil {
		return nil, err
	}
	refs, err := d.warm()
	if err != nil {
		return nil, err
	}
	setupS := time.Since(start).Seconds()
	runtime.GC()

	rng := rand.New(rand.NewSource(cfg.seed))
	p := d.passes(cfg.seconds, rng, refs, &out.tally,
		func(s *statement, _ int) (*elephant.Result, error) { return d.run(s) })
	heap := liveHeapMiB()
	c := d.countedPass(&out.tally)
	if err := d.paperOracle(cfg.sf, refs, &out.tally); err != nil {
		return nil, err
	}

	r := out.report
	r.set("setup_s", setupS, 1)
	r.set("modeled_disk_cost", c.meanCost(), len(d.stmts))
	r.set("space_amp", float64(d.dataPages)/float64(d.basePages), 1)
	r.set("heap_live_mb", heap, 1)
	out.extra = append(out.extra, p.diagnostics())
	return out, nil
}

// runPaperTraced is the --trace 1 run: one build, half the window as a user
// runs it (counters read before and after), a quarter with a span around
// every call into a layer and the program's operator tree grafted under the
// engine call, a quarter the same way without spans (what the tracing
// overhead and the parallel speed-up are taken against), then the
// single-layer probes.
func runPaperTraced(cfg runConfig) (*outcome, error) {
	out := &outcome{report: newReport()}
	d, err := buildPaper(cfg.workload, cfg.sf, cfg.seed)
	if err != nil {
		return nil, err
	}
	refs, err := d.warm()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rng := rand.New(rand.NewSource(cfg.seed))
	t := &out.tally

	cache0, io0 := d.db.PlanCacheStats(), d.db.Pager().Stats()
	user := d.passes(cfg.seconds/2, rng, refs, t,
		func(s *statement, _ int) (*elephant.Result, error) { return d.run(s) })
	cache1, io1 := d.db.PlanCacheStats(), d.db.Pager().Stats()

	rec := newRecorder(time.Now(), 0)
	serialTraced := engine.QueryOptions{Parallelism: 1, Trace: true}
	traced := d.passes(cfg.seconds/4, rng, refs, t,
		func(s *statement, op int) (*elephant.Result, error) { return d.layered(s, serialTraced, rec, op) })
	serial := d.passes(cfg.seconds/4, rng, refs, t,
		func(s *statement, _ int) (*elephant.Result, error) {
			return d.layered(s, engine.QueryOptions{Parallelism: 1}, nil, 0)
		})

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	selfTimes(rec.spans)
	if err := writeSpans(filepath.Join(cfg.outDir, cfg.workload+".spans.jsonl"), rec.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	r := out.report
	// A paper_* workload makes no call into the server or the log. The commit
	// count is read, not assumed: an in-memory database must log nothing.
	setZero(r, "server.", "wal.")
	r.set("wal.commits", float64(d.db.WALStats().Commits), 1)
	hits := cache1.Hits - cache0.Hits
	lookups := hits + cache1.StmtHits - cache0.StmtHits + cache1.Misses - cache0.Misses
	r.set("engine.plancache_hit_rate", ratio(float64(hits), float64(lookups)), int(lookups))
	r.set("engine.plancache_evictions", float64(cache1.Evictions-cache0.Evictions), 1)
	seek, err := probeSeek(d.db, cfg.seed)
	if err != nil {
		return nil, err
	}
	r.set("engine.cold_minus_prepared_us", seek.coldUS-seek.preparedUS, seek.samples)
	r.set("engine.alloc_kb_per_op", float64(user.allocB)/1024/float64(user.ops), user.ops)

	texts, err := d.probeFrontEnd(r)
	if err != nil {
		return nil, err
	}
	if err := probeParsePlan(d.db, texts, r); err != nil {
		return nil, err
	}
	r.set("matview.build_s", d.viewsS, 1)
	r.set("ctable.build_s", d.ctablesS, 1)

	setExecMetrics(r, rec.spans, traced.ops)
	r.set("exec.parallel_speedup", speedup(serial, user, d.stmts), len(d.stmts))

	scanNS, scanRows, err := probeScan(d.db)
	if err != nil {
		return nil, err
	}
	r.set("catalog.scan_ns_per_row", scanNS, scanRows)
	r.set("catalog.seek_us", seek.preparedUS, seek.samples)
	r.set("btree.pages_per_seek", seek.pagesPerSeek, seek.samples)
	r.set("tpch.load_s", d.loadS, 1)

	c := d.countedPass(t)
	io := io1.Sub(io0)
	c.setStorage(r)
	r.set("storage.hit_rate", ratio(float64(io.CacheHits), float64(io.CacheHits+io.PageReads)), user.ops)
	r.set("storage.page_writes", float64(io.PageWrites), 1)
	r.set("storage.data_pages", float64(d.dataPages), 1)

	colopt, err := d.probeColOpt(c, &out.extra)
	if err != nil {
		return nil, err
	}
	r.set("colstore.colopt_cost", colopt.meanCost, len(d.stmts))
	r.set("paper.over_colopt", colopt.over, len(figure1))

	oracleStart := time.Now()
	if err := d.paperOracle(cfg.sf, refs, t); err != nil {
		return nil, err
	}
	setBenchMetrics(r, user)
	r.set("bench.peak_rss_mb", rss, 1)
	r.set("bench.trace_overhead", traced.opMS()/serial.opMS()-1, traced.ops)
	r.set("bench.oracle_s", time.Since(oracleStart).Seconds(), 1)
	var execSum float64
	for _, c := range operatorClasses {
		execSum += r.values["exec."+c+"_self_ms"].Value
	}
	tracedMS := sum(traced.passes) / float64(traced.ops)
	out.extra = append(out.extra, fmt.Sprintf("traced quarter: mean op latency %.4f ms, exec.*_self_ms sum %.4f ms (%.1f%%)",
		tracedMS, execSum, 100*execSum/tracedMS))
	out.extra = append(out.extra, fmt.Sprintf("nproc %d: exec.parallel_speedup is serial over default latency on this many cores", runtime.NumCPU()))
	return out, nil
}

// setBenchMetrics reports the user half of a traced run: how much it held, its
// timings as lower quartiles and as medians, how noisy it was and what the
// reference kernel read.
func setBenchMetrics(r *report, p phase) {
	sel, blk, ops := p.timings()
	r.set("bench.passes", float64(len(p.passes)), 1)
	r.set("bench.samples", float64(p.ops), 1)
	r.set("bench.selective_ms", sel, p.ops)
	r.set("bench.bulk_ms", blk, p.ops)
	r.set("bench.ops_per_s", ops, len(p.passes))
	r.set("bench.selective_p50_ms", classMean(p.lat, p.selective, median), p.ops)
	r.set("bench.bulk_p50_ms", classMean(p.lat, p.bulk, median), p.ops)
	r.set("bench.pass_iqr_share", iqrShare(p.passes), len(p.passes))
	r.set("bench.ref_kernel_ms", p25(p.kernel), len(p.kernel))
	r.set("bench.cpu_ms_per_op", p.cpuS*1000/float64(p.ops), p.ops)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// speedup is the per-statement mean of serial over default latency.
func speedup(serial, user phase, stmts []statement) float64 {
	var xs []float64
	for _, s := range stmts {
		xs = append(xs, p25(serial.lat[s.name])/p25(user.lat[s.name]))
	}
	return mean(xs)
}

// setExecMetrics turns the traced spans into mean self time per operation by
// operator class, rows in per row out, and scan rate.
func setExecMetrics(r *report, spans []span, ops int) {
	self := make(map[string]float64)
	var scanRows, leafRows, outRows float64
	children := make(map[int]bool)
	for _, s := range spans {
		children[s.Parent] = true
	}
	for _, s := range spans {
		if s.Kind != "operator" {
			continue
		}
		c := operatorClass(s.Name)
		self[c] += float64(s.Self) / 1e6
		if c == "scan" {
			scanRows += float64(s.Rows)
		}
		if !children[s.ID] {
			leafRows += float64(s.Rows)
		}
	}
	byID := make(map[int]string, len(spans))
	for _, s := range spans {
		byID[s.ID] = s.Kind
	}
	for _, s := range spans {
		if s.Kind == "operator" && byID[s.Parent] == "call" {
			outRows += float64(s.Rows) // the root operator's rows are the result's
		}
	}
	for _, c := range operatorClasses {
		r.set("exec."+c+"_self_ms", ratio(self[c], float64(ops)), ops)
	}
	r.set("exec.rows_in_per_row_out", ratio(leafRows, outRows), ops)
	r.set("exec.scan_rows_per_s", ratio(scanRows, self["scan"]/1000), ops)
}

// setZero reports the layers with these name prefixes as unexercised.
func setZero(r *report, prefixes ...string) {
	for _, m := range perLayer {
		for _, prefix := range prefixes {
			if strings.HasPrefix(m.Name, prefix) {
				r.set(m.Name, 0, 0)
			}
		}
	}
}
