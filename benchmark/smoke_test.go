package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSON holds BENCHMARK.json and spec.go together.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d is %q (%q)", i, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, want)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound > setupBound || m.Bound > 0.25 {
			t.Errorf("%s has bound %g; setup_s must have the largest, and none may exceed 0.25", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, want)
		}
		if want.Moves == "" {
			t.Errorf("%s names no end-to-end metric it should move", want.Name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a tenth of the
// benchmark's scale for a few passes, so a change that breaks an entry point
// the benchmark calls fails here and not in the pipeline.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds eight small databases")
	}
	b := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 3, seconds: 0.3, trace: trace, sf: 0.002, outDir: t.TempDir()}
			run := runPaper
			if w == "serve_mixed" {
				run = runServe
			}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if out.tally.failed != 0 || out.tally.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, trace, out.tally.failed, out.tally.attempted, out.tally.notes)
			}
			line, err := selectMetrics(out, trace)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
			want := make(map[string]string)
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
				if _, err := os.Stat(filepath.Join(cfg.outDir, w+".spans.jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w, err)
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w, trace, len(line.Metrics), len(want))
			}
			for name, m := range line.Metrics {
				if want[name] != m.Unit {
					t.Errorf("%s trace=%v: %s printed in %q, BENCHMARK.json says %q", w, trace, name, m.Unit, want[name])
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, name, m.Value)
				}
			}
		}
	}
}
