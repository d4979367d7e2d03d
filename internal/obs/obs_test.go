package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestMetricsCountersGaugesAndFuncs(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "A counter.")
	g := r.NewGauge("test_gauge", "A gauge.")
	r.CounterFunc("test_fn_total", "Sampled counter.", func() int64 { return 42 })
	r.GaugeFunc("test_fn_gauge", "", func() int64 { return -7 })

	c.Inc()
	c.Add(4)
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_total A counter.",
		"# TYPE test_total counter",
		"test_total 5",
		"# TYPE test_gauge gauge",
		"test_gauge 7",
		"test_fn_total 42",
		"test_fn_gauge -7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// A metric registered with empty help must not emit a HELP line.
	if strings.Contains(out, "# HELP test_fn_gauge") {
		t.Errorf("HELP line emitted for help-less metric:\n%s", out)
	}
}

func TestMetricsHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	if h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram: p50 %g max %g, want 0", h.Quantile(0.5), h.Max())
	}
	h.Observe(0.05)
	// Interpolation alone would say 0.099; no estimate exceeds the maximum.
	if got := h.Quantile(0.99); got != 0.05 {
		t.Fatalf("p99 of one observation = %g, want it clamped to 0.05", got)
	}
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 55.6; got != want {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
	// Rank q*5 falls in a bucket and is placed linearly between its bounds;
	// the +Inf bucket reports the observed maximum.
	for _, tc := range []struct{ q, want float64 }{{0.2, 0.05}, {0.5, 0.55}, {0.8, 10}, {0.9, 50}, {1, 50}} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if h.Max() != 50 {
		t.Errorf("Max = %g, want 50", h.Max())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Buckets are cumulative: <=0.1 holds 2, <=1 holds 3, <=10 holds 4, +Inf 5.
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 55.6",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup_total", "")
}

func TestMetricsHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body missing series:\n%s", rec.Body.String())
	}
}

// TestMetricsConcurrentUpdates hammers one histogram and counter from many
// goroutines while scraping, so `go test -race` proves the lock-free update
// paths and the renderer can interleave.
func TestMetricsConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hits_total", "")
	h := r.NewHistogram("obs_seconds", "", DurationBuckets)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				if i%500 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if h.Max() != 0.099 {
		t.Fatalf("histogram max = %g, want 0.099", h.Max())
	}
}
