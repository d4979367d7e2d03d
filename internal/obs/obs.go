// Package obs is a dependency-free metrics registry: counters, gauges and
// histograms with atomic updates, plus callback metrics that sample existing
// subsystem statistics (plan cache, WAL, pager, admission control) at scrape
// time instead of requiring those subsystems to push. A Registry renders
// itself in the Prometheus text exposition format (version 0.0.4), so any
// Prometheus-compatible scraper — or curl — can consume it from the
// elephantd HTTP listener.
//
// Update paths are lock-free (one atomic add per Observe/Add), so operators
// and hot loops can record into a shared registry without contention;
// rendering takes no locks beyond the registration list's.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the rendered series to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// each bucket counts observations <= its upper bound).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observation (0 before the first; observations are
// taken to be non-negative).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) of everything observed so
// far, the way a scraper would from the exported buckets: find the bucket
// that holds the observation of rank q*Count, interpolate linearly between
// its bounds, and clamp to the observed maximum — which also stands in for
// the unbounded +Inf bucket. It is monotonic in q and never exceeds Max; its
// error is at most the width of one bucket. 0 before the first observation.
func (h *Histogram) Quantile(q float64) float64 {
	rank := q * float64(h.Count())
	var below, lo float64
	for i, hi := range h.bounds {
		n := float64(h.buckets[i].Load())
		if n > 0 && below+n >= rank {
			return math.Min(lo+(hi-lo)*(rank-below)/n, h.Max())
		}
		below, lo = below+n, hi
	}
	return h.Max()
}

// DurationBuckets is a general-purpose latency bucket ladder in seconds,
// 100µs to ~100s.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// metricKind is the TYPE line value for a registered metric.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metric is one registered series.
type metric struct {
	name string
	help string
	kind metricKind
	// exactly one of these is set
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64
}

// Registry holds registered metrics and renders them on demand. Registration
// normally happens at startup; the zero Registry is ready to use.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names == nil {
		r.names = make(map[string]bool)
	}
	if r.names[m.name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.names[m.name] = true
	r.metrics = append(r.metrics, m)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// NewHistogram registers and returns a histogram with the given upper bounds
// (ascending; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time — the bridge to subsystems that already keep their own counters
// (plan-cache stats, WAL stats, pager IOStats).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, kind: kindCounter, fn: fn})
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, fn: fn})
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	for _, m := range metrics {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
			return err
		}
		var err error
		switch {
		case m.counter != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case m.gauge != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case m.fn != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.fn())
		case m.hist != nil:
			err = writeHistogram(w, m.name, m.hist)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, h *Histogram) error {
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	count := h.Count()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, count)
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler returns an http.Handler serving the registry in the text exposition
// format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
