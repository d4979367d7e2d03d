package main

// The names every later issue uses. BENCHMARK.json lists the same names,
// units, directions and bounds (TestBenchmarkJSON holds the two together);
// `moves` is kept here and in the README because BENCHMARK.json's entries may
// carry no other key.

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

var workloadNames = []string{"paper_row", "paper_mv", "paper_rowcol", "serve_mixed"}

var workloadWhy = map[string]string{
	"paper_row":    "the paper's Row strategy on base tables: exec scan, filter, aggregate and hash join over a table 3.4 times the buffer pool; views, c-tables, WAL and server do nothing",
	"paper_mv":     "Row(MV): ops of 0.1 to 10 ms answered from four views that fit every cache, so view matching, parse and plan show and an exec gain should not move it",
	"paper_rowcol": "Row(Col): mechanical rewrites onto c-tables D1, D2 and D4; nearly all time is in row-at-a-time index nested-loop band joins, hash join and wide scans are bypassed",
	"serve_mixed":  "the same engine behind its TCP server with a durable directory: 60% prepared point seeks, 15% ad-hoc range scans, 25% fsynced inserts, so server, plan cache, WAL and storage do the work",
}

// The window's timings (selective, bulk, operations per second) are not here:
// as raw lower quartiles they spread 0.08-0.16 across ten runs on the runner
// this was sized on, over the 0.10 a timing bound may be, and issue 12's rule
// for a timing that will not hold its bound is to demote it, never to widen the
// bound or normalise. They are bench.selective_ms, bench.bulk_ms and
// bench.ops_per_s below. setup_s must be end-to-end and takes the widest bound.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "modeled_disk_cost", Unit: "pages", Better: "lower", Bound: 0.02},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.01},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
}

// The timings named in Moves are the demoted ones, bench.selective_ms,
// bench.bulk_ms and bench.ops_per_s, without the prefix.
const (
	mvSel     = "selective_ms @ paper_mv"
	serveSel  = "selective_ms @ serve_mixed"
	serveOps  = "ops_per_s, failed @ serve_mixed"
	rowBulk   = "bulk_ms, ops_per_s @ paper_row"
	colBulk   = "bulk_ms, ops_per_s @ paper_rowcol"
	diskSpace = "modeled_disk_cost, space_amp"
)

var perLayer = []metricSpec{
	{Name: "server.ping_us", Unit: "us", Better: "lower", Moves: serveSel},
	{Name: "server.wire_us", Unit: "us", Better: "lower", Moves: serveSel + "; bulk_ms @ serve_mixed"},
	{Name: "server.queue_us", Unit: "us", Better: "lower", Moves: serveSel},
	{Name: "server.admission_waits", Unit: "count", Better: "lower", Moves: serveSel},
	{Name: "server.rejected", Unit: "count", Better: "lower", Moves: "failed @ serve_mixed"},
	{Name: "server.errors", Unit: "count", Better: "lower", Moves: "failed @ serve_mixed"},
	{Name: "server.seek_p99_ms", Unit: "ms", Better: "lower", Moves: serveSel + " (tail, does not repeat within a tenth)"},
	{Name: "server.range_p95_ms", Unit: "ms", Better: "lower", Moves: "bulk_ms @ serve_mixed (tail, does not repeat within a tenth)"},

	{Name: "engine.plancache_hit_rate", Unit: "ratio", Better: "higher", Moves: serveSel + ", paper_mv"},
	{Name: "engine.plancache_evictions", Unit: "count", Better: "lower", Moves: serveSel},
	{Name: "engine.cold_minus_prepared_us", Unit: "us", Better: "lower", Moves: serveSel},
	{Name: "engine.alloc_kb_per_op", Unit: "KiB", Better: "lower", Moves: "bench.peak_rss_mb everywhere; " + mvSel},

	{Name: "sql.parse_us", Unit: "us", Better: "lower", Moves: mvSel + ", paper_rowcol; bulk_ms @ serve_mixed"},
	{Name: "plan.plan_us", Unit: "us", Better: "lower", Moves: mvSel + ", paper_rowcol; bulk_ms @ serve_mixed"},

	{Name: "matview.match_us", Unit: "us", Better: "lower", Moves: mvSel},
	{Name: "matview.matched_share", Unit: "ratio", Better: "higher", Moves: "failed @ paper_mv"},
	{Name: "matview.build_s", Unit: "s", Better: "lower", Moves: "setup_s @ paper_mv"},

	{Name: "rewrite.rewrite_us", Unit: "us", Better: "lower", Moves: "selective_ms @ paper_rowcol"},
	{Name: "rewrite.sql_bytes", Unit: "B", Better: "lower", Moves: "selective_ms @ paper_rowcol (parse and plan grow with it)"},
	{Name: "ctable.build_s", Unit: "s", Better: "lower", Moves: "setup_s @ paper_rowcol"},

	{Name: "exec.scan_self_ms", Unit: "ms", Better: "lower", Moves: rowBulk},
	{Name: "exec.filter_self_ms", Unit: "ms", Better: "lower", Moves: rowBulk},
	{Name: "exec.agg_self_ms", Unit: "ms", Better: "lower", Moves: rowBulk},
	{Name: "exec.hashjoin_self_ms", Unit: "ms", Better: "lower", Moves: rowBulk},
	{Name: "exec.mergejoin_self_ms", Unit: "ms", Better: "lower", Moves: colBulk},
	{Name: "exec.inljoin_self_ms", Unit: "ms", Better: "lower", Moves: colBulk},
	{Name: "exec.sort_self_ms", Unit: "ms", Better: "lower", Moves: colBulk},
	{Name: "exec.other_self_ms", Unit: "ms", Better: "lower", Moves: rowBulk + ", paper_rowcol"},
	{Name: "exec.rows_in_per_row_out", Unit: "ratio", Better: "lower", Moves: rowBulk},
	{Name: "exec.scan_rows_per_s", Unit: "1/s", Better: "higher", Moves: rowBulk},
	{Name: "exec.parallel_speedup", Unit: "ratio", Better: "higher", Moves: "bulk_ms @ paper_row"},

	{Name: "catalog.scan_ns_per_row", Unit: "ns", Better: "lower", Moves: "bulk_ms @ paper_row"},
	{Name: "catalog.seek_us", Unit: "us", Better: "lower", Moves: serveSel},
	{Name: "btree.pages_per_seek", Unit: "pages", Better: "lower", Moves: serveSel + "; modeled_disk_cost @ serve_mixed"},
	{Name: "tpch.load_s", Unit: "s", Better: "lower", Moves: "setup_s everywhere"},

	{Name: "storage.page_reads", Unit: "pages", Better: "lower", Moves: diskSpace},
	{Name: "storage.seq_reads", Unit: "pages", Better: "lower", Moves: diskSpace},
	{Name: "storage.rand_reads", Unit: "pages", Better: "lower", Moves: diskSpace},
	{Name: "storage.cache_hits", Unit: "pages", Better: "higher", Moves: diskSpace},
	{Name: "storage.hit_rate", Unit: "ratio", Better: "higher", Moves: "with a real buffer pool, bulk_ms @ paper_row"},
	{Name: "storage.page_writes", Unit: "pages", Better: "lower", Moves: "ops_per_s @ serve_mixed"},
	{Name: "storage.data_pages", Unit: "pages", Better: "lower", Moves: "space_amp"},

	{Name: "wal.commits", Unit: "count", Better: "higher", Moves: serveOps},
	{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: "lower", Moves: serveOps},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower", Moves: serveOps},
	{Name: "wal.commit_p50_ms", Unit: "ms", Better: "lower", Moves: serveOps},
	{Name: "wal.commit_p95_ms", Unit: "ms", Better: "lower", Moves: serveOps},
	{Name: "wal.commit_us_inproc", Unit: "us", Better: "lower", Moves: serveOps},
	{Name: "wal.size_mb_end", Unit: "MiB", Better: "lower", Moves: serveOps},
	{Name: "wal.checkpoint_s", Unit: "s", Better: "lower", Moves: "setup_s @ serve_mixed"},
	{Name: "wal.recovery_s", Unit: "s", Better: "lower", Moves: "setup_s @ serve_mixed after a crash"},
	{Name: "wal.acked_lost", Unit: "count", Better: "lower", Moves: "failed @ serve_mixed"},

	{Name: "colstore.colopt_cost", Unit: "pages", Better: "lower", Moves: "the bound modeled_disk_cost is held against @ paper_*"},
	{Name: "paper.over_colopt", Unit: "ratio", Better: "lower", Moves: "modeled_disk_cost @ its paper_* workload"},

	{Name: "bench.passes", Unit: "count", Better: "higher", Moves: "none: how many passes the window held"},
	{Name: "bench.samples", Unit: "count", Better: "higher", Moves: "none: timed operations in the window"},
	{Name: "bench.selective_ms", Unit: "ms", Better: "lower", Moves: "what a reader of light statements waits: mean of the selective statements' lower-quartile latencies; demoted from end-to-end"},
	{Name: "bench.bulk_ms", Unit: "ms", Better: "lower", Moves: "what a reader of heavy statements waits: the same over the bulk statements; demoted from end-to-end"},
	{Name: "bench.ops_per_s", Unit: "1/s", Better: "higher", Moves: "callers × operations per pass ÷ lower-quartile pass time; demoted from end-to-end"},
	{Name: "bench.selective_p50_ms", Unit: "ms", Better: "lower", Moves: "selective_ms, as a median"},
	{Name: "bench.bulk_p50_ms", Unit: "ms", Better: "lower", Moves: "bulk_ms, as a median"},
	{Name: "bench.pass_iqr_share", Unit: "ratio", Better: "lower", Moves: "none: how noisy this run's machine was"},
	{Name: "bench.ref_kernel_ms", Unit: "ms", Better: "lower", Moves: "none: lower quartile of the reference kernel, timed once per pass and never applied; runs that differ by a tenth did not see the same machine"},
	{Name: "bench.peak_rss_mb", Unit: "MiB", Better: "lower", Moves: "heap_live_mb, with the collector's slack and the build's transients; VmHWM, does not repeat within a tenth"},
	{Name: "bench.cpu_ms_per_op", Unit: "ms", Better: "lower", Moves: "tells a gain from parallelism apart from a gain from less work"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower", Moves: "none: traced over untraced serial latency, minus one"},
	{Name: "bench.oracle_s", Unit: "s", Better: "lower", Moves: "none: outside set-up and window"},
}

// report collects a run's metrics by name.
type report struct {
	values map[string]measured
}

type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func newReport() *report { return &report{values: make(map[string]measured)} }

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in spec.go")
}

func (r *report) set(name string, value float64, samples int) {
	r.values[name] = measured{Value: value, Unit: unitOf(name), Samples: samples}
}
