// Command benchmark is the repository's one measurement entry point: the
// paper's three strategies and a write-heavy serving mix, each built once,
// run as whole passes for a fixed time, checked against an oracle, and
// reported as lower-quartile timings with per-layer attribution taken from
// outside the program. See README.md.
//
//	go run -C benchmark . --workload paper_row --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . -all --seed 1
//	go run -C benchmark . -repeat 3 --seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	dir, err := benchmarkDir()
	if err != nil {
		fatal(err)
	}
	workload := flag.String("workload", "", "one of paper_row, paper_mv, paper_rowcol, serve_mixed")
	seed := flag.Int64("seed", 1, "picks statement order, date literals and the serve_mixed op and key sequence")
	seconds := flag.Float64("seconds", defaultSeconds(dir), "length of the timed window; defaults to BENCHMARK.json's run_seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	all := flag.Bool("all", false, "run every workload, traced and untraced, each in a child process")
	repeat := flag.Int("repeat", 0, "A/A gate: two interleaved sets of N runs of every workload; non-zero exit on a breach")
	outFile := flag.String("out", "", "append one JSON object per run to this file")
	flag.Parse()

	switch {
	case *repeat > 0:
		os.Exit(runRepeat(*repeat, *seed, *seconds, *outFile))
	case *all:
		os.Exit(runAll(*seed, *seconds, *outFile))
	}
	if !slices.Contains(workloadNames, *workload) {
		fatal(fmt.Errorf("unknown workload %q; want one of %v", *workload, workloadNames))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		sf: scaleFactor, outDir: filepath.Join(dir, "out")}
	os.Exit(runOne(cfg, *outFile))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// benchmarkDir finds this package's directory from the working directory,
// which is the package itself under `go run -C benchmark .` and the
// repository root otherwise. Outputs go under it and nowhere else.
func benchmarkDir() (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{cwd, filepath.Join(cwd, "benchmark")} {
		if _, err := os.Stat(filepath.Join(dir, "spec.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "..", "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("run from the repository root or from benchmark/ (BENCHMARK.json not found from %s)", cwd)
}

// defaultSeconds reads run_seconds from BENCHMARK.json, so a run made by hand
// measures as long as the pipeline's.
func defaultSeconds(dir string) float64 {
	data, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return 0
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return 0
	}
	return spec.RunSeconds
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]unitValued `json:"metrics"`
}

type unitValued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func specFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// selectMetrics builds the result line: with tracing off every end-to-end
// metric, with tracing on every per-layer metric, and nothing else.
func selectMetrics(out *outcome, trace bool) (resultLine, error) {
	line := resultLine{Correct: out.tally.failed == 0, Attempted: out.tally.attempted, Failed: out.tally.failed,
		Metrics: make(map[string]unitValued)}
	for _, m := range specFor(trace) {
		v, ok := out.report.values[m.Name]
		if !ok {
			return line, fmt.Errorf("%s was not measured", m.Name)
		}
		line.Metrics[m.Name] = unitValued{Value: v.Value, Unit: v.Unit}
	}
	return line, nil
}

// runOne runs one workload in this process and prints its metrics, each as
// `name value unit samples`, then the result line. The exit status is
// non-zero when any operation failed.
func runOne(cfg runConfig, outFile string) int {
	env := currentEnvironment()
	fmt.Printf("# workload %s  seed %d  seconds %g  trace %v  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	run := runPaper
	if cfg.workload == "serve_mixed" {
		run = runServe
	}
	out, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	line, err := selectMetrics(out, cfg.trace)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	for _, m := range specFor(cfg.trace) {
		v := out.report.values[m.Name]
		fmt.Printf("%s %.6g %s %d\n", m.Name, v.Value, v.Unit, v.Samples)
	}
	for _, e := range out.extra {
		fmt.Println("#", e)
	}
	for _, n := range out.tally.notes {
		fmt.Println("# FAILED:", n)
	}
	if outFile != "" {
		if err := appendResult(outFile, env, cfg, line, out.report); err != nil {
			fatal(err)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// storedResult is the one versioned shape results are kept in.
type storedResult struct {
	Schema int `json:"schema"`
	environment
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     bool                `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func appendResult(path string, env environment, cfg runConfig, line resultLine, r *report) error {
	rec := storedResult{Schema: 1, environment: env, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed,
		Metrics: make(map[string]measured)}
	for name := range line.Metrics {
		rec.Metrics[name] = r.values[name]
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
