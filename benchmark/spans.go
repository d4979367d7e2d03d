package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"

	"oldelephant/internal/trace"
)

// span is one timed interval of the traced run: a call the benchmark made
// into a layer, or an operator of the program's EXPLAIN ANALYZE tree grafted
// under the engine call that produced it. Spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an operation's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`     // "call" made by the benchmark, or "operator" grafted from the program's trace
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Rows   int64  `json:"rows,omitempty"`
}

// recorder keeps spans in memory until the run ends. One goroutine owns a
// recorder; serve_mixed gives each connection its own, with disjoint ids.
type recorder struct {
	origin time.Time
	nextID int
	spans  []span
}

func newRecorder(origin time.Time, firstID int) *recorder {
	return &recorder{origin: origin, nextID: firstID}
}

// root opens an operation's first span and returns its index in r.spans.
// Every method accepts a nil recorder and does nothing, so one call sequence
// serves the traced and the untraced phases.
func (r *recorder) root(op int, name string) int {
	if r == nil {
		return -1
	}
	return r.open(0, op, name)
}

// child opens a span under the span at index parent, in the same operation.
func (r *recorder) child(parent int, name string) int {
	if r == nil {
		return -1
	}
	return r.open(r.spans[parent].ID, r.spans[parent].Op, name)
}

func (r *recorder) open(parentID, op int, name string) int {
	r.nextID++
	r.spans = append(r.spans, span{ID: r.nextID, Parent: parentID, Op: op, Name: name, Kind: "call",
		Start: int64(time.Since(r.origin))})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].End = int64(time.Since(r.origin))
	}
}

// graft copies the program's operator tree under span i. The program reports
// inclusive durations without timestamps, so each operator is placed at its
// parent's start, siblings end to end; only the durations carry information.
func (r *recorder) graft(i int, t *trace.Span) {
	if r != nil && t != nil {
		r.graftAt(r.spans[i].ID, r.spans[i].Op, r.spans[i].Start, t)
	}
}

func (r *recorder) graftAt(parent, op int, start int64, t *trace.Span) {
	r.nextID++
	id := r.nextID
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: t.Name, Kind: "operator",
		Start: start, End: start + int64(t.Wall), Rows: t.Rows})
	for _, c := range t.Children {
		r.graftAt(id, op, start, c)
		start += int64(c.Wall)
	}
}

// selfTimes fills Self: a span's duration minus what its children cover. The
// program's spans are inclusive only, so this is computed here.
func selfTimes(spans []span) {
	byID := make(map[int]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for i := range spans {
		if p, ok := byID[spans[i].Parent]; ok {
			spans[p].Self -= spans[i].End - spans[i].Start
		}
	}
	for i := range spans {
		if spans[i].Self < 0 {
			spans[i].Self = 0
		}
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// operatorClasses are the exec.<class>_self_ms metrics, in print order.
var operatorClasses = []string{"scan", "filter", "agg", "hashjoin", "mergejoin", "inljoin", "sort", "other"}

// operatorClass maps the name of a program operator span to its exec metric.
func operatorClass(name string) string {
	switch {
	case strings.HasPrefix(name, "SeqScan("), strings.HasPrefix(name, "ClusteredSeek("),
		strings.HasPrefix(name, "IndexSeek("), name == "ValuesScan", name == "ParallelMerge":
		return "scan"
	case name == "Filter":
		return "filter"
	case strings.HasSuffix(name, "Aggregate"):
		return "agg"
	case strings.HasSuffix(name, "HashJoin"):
		return "hashjoin"
	case name == "MergeJoin":
		return "mergejoin"
	case name == "IndexNestedLoopJoin":
		return "inljoin"
	case strings.HasSuffix(name, "Sort"):
		return "sort"
	default:
		return "other"
	}
}
