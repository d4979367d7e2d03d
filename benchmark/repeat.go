package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// child runs one workload in a child process, so that no run shares a heap,
// a page cache of its own making or an RSS high-water mark with another. The
// child's output is passed through; its result line is returned.
func child(workload string, seed int64, seconds float64, trace int, outFile string) (resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace)}
	if outFile != "" {
		args = append(args, "-out", outFile)
	}
	cmd := exec.Command(self, args...)
	var captured bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &captured)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(captured.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return line, fmt.Errorf("%s: %w", workload, runErr)
		}
		return line, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return line, nil // a run with failed operations exits non-zero and still reports
}

// runAll runs every workload untraced and traced.
func runAll(seed int64, seconds float64, outFile string) int {
	status := 0
	for _, w := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			line, err := child(w, seed, seconds, trace, outFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				status = 2
			} else if !line.Correct {
				status = 1
			}
		}
	}
	return status
}

// comparison holds one end-to-end metric of one workload in two sets of runs
// of the same code.
type comparison struct {
	medA, medB float64
	diff       float64 // |A − B| ÷ A
	iqrA, iqrB float64 // each set's IQR ÷ median
	breach     bool
}

// compare is symmetric: a second set that is better than the first by more
// than the bound is as much a failure to repeat as one that is worse. A
// zero, missing or NaN value is a breach.
func compare(a, b []float64, bound float64) comparison {
	c := comparison{medA: median(a), medB: median(b), iqrA: iqrShare(a), iqrB: iqrShare(b)}
	c.diff = math.Abs(c.medA-c.medB) / math.Abs(c.medA)
	usable := func(xs []float64) bool {
		for _, x := range xs {
			if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return len(xs) > 0
	}
	c.breach = !usable(a) || !usable(b) || len(a) != len(b) || !(c.diff <= bound)
	return c
}

// runRepeat is the benchmark's own A/A gate: two sets of n runs of every
// workload with the same seed, interleaved A1 B1 A2 B2 ... so that both sets
// see the same stretch of machine.
func runRepeat(n int, seed int64, seconds float64, outFile string) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failed := false
	for i := 0; i < n; i++ {
		for set := range sets {
			for _, w := range workloadNames {
				line, err := child(w, seed, seconds, 0, outFile)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					failed = true
					continue
				}
				failed = failed || !line.Correct
				for name, m := range line.Metrics {
					sets[set][key{w, name}] = append(sets[set][key{w, name}], m.Value)
				}
			}
		}
	}
	fmt.Printf("\n%-13s %-16s %12s %12s %8s %6s %8s %8s\n", "workload", "metric", "median A", "median B", "|A-B|/A", "bound", "IQR A", "IQR B")
	for _, w := range workloadNames {
		for _, m := range endToEnd {
			c := compare(sets[0][key{w, m.Name}], sets[1][key{w, m.Name}], m.Bound)
			mark := ""
			if c.breach {
				mark = "  BREACH"
				failed = true
			}
			fmt.Printf("%-13s %-16s %12.6g %12.6g %8.4f %6.2f %8.4f %8.4f%s\n",
				w, m.Name, c.medA, c.medB, c.diff, m.Bound, c.iqrA, c.iqrB, mark)
		}
	}
	if failed {
		return 1
	}
	return 0
}
