package main

import (
	"testing"
	"time"

	"oldelephant/internal/trace"
)

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Start: 0, End: 3 * ms},
		{ID: 3, Parent: 1, Start: 3 * ms, End: 7 * ms},
		{ID: 4, Parent: 3, Start: 3 * ms, End: 4 * ms},
	}
	selfTimes(spans)
	for i, want := range []int64{3 * ms, 3 * ms, 3 * ms, 1 * ms} {
		if spans[i].Self != want {
			t.Errorf("span %d self = %d ns, want %d", spans[i].ID, spans[i].Self, want)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	// The program times each operator on its own clock, so children can add
	// up to a hair more than their parent.
	spans := []span{{ID: 1, Start: 0, End: 100}, {ID: 2, Parent: 1, Start: 0, End: 60}, {ID: 3, Parent: 1, Start: 60, End: 105}}
	selfTimes(spans)
	if spans[0].Self != 0 {
		t.Errorf("self = %d, want 0", spans[0].Self)
	}
}

func TestGraftKeepsDurationsAndParents(t *testing.T) {
	tree := &trace.Span{Name: "HashAggregate", Rows: 5, Wall: 10 * time.Millisecond, Children: []*trace.Span{
		{Name: "Filter", Rows: 50, Wall: 7 * time.Millisecond, Children: []*trace.Span{
			{Name: "SeqScan(lineitem)", Rows: 100, Wall: 4 * time.Millisecond},
		}},
	}}
	rec := newRecorder(time.Now(), 0)
	call := rec.root(9, "engine.QueryWith")
	rec.graft(call, tree)
	rec.end(call)
	selfTimes(rec.spans)
	if len(rec.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(rec.spans))
	}
	wantSelf := map[string]time.Duration{"HashAggregate": 3 * time.Millisecond, "Filter": 3 * time.Millisecond, "SeqScan(lineitem)": 4 * time.Millisecond}
	for _, s := range rec.spans[1:] {
		if s.Kind != "operator" || s.Op != 9 {
			t.Errorf("%s: kind %q op %d", s.Name, s.Kind, s.Op)
		}
		if time.Duration(s.Self) != wantSelf[s.Name] {
			t.Errorf("%s self = %v, want %v", s.Name, time.Duration(s.Self), wantSelf[s.Name])
		}
	}
	if rec.spans[1].Parent != rec.spans[0].ID || rec.spans[3].Parent != rec.spans[2].ID {
		t.Error("grafted spans lost their parents")
	}
}

func TestNilRecorder(t *testing.T) {
	var rec *recorder
	i := rec.root(1, "op")
	j := rec.child(i, "engine.QueryWith")
	rec.graft(j, &trace.Span{Name: "Sort"})
	rec.end(j)
	rec.end(i)
	if i != -1 || j != -1 {
		t.Error("a nil recorder handed out span indexes")
	}
}

func TestOperatorClass(t *testing.T) {
	for name, want := range map[string]string{
		"SeqScan(lineitem)": "scan", "ClusteredSeek(orders)": "scan", "IndexSeek(d1_l_suppkey.v)": "scan",
		"Filter": "filter", "HashAggregate": "agg", "ParallelStreamAggregate": "agg",
		"VectorizedHashJoin": "hashjoin", "HashJoin": "hashjoin", "MergeJoin": "mergejoin",
		"IndexNestedLoopJoin": "inljoin", "ParallelSort": "sort", "Project": "other", "NestedLoopJoin": "other",
	} {
		if got := operatorClass(name); got != want {
			t.Errorf("operatorClass(%q) = %q, want %q", name, got, want)
		}
	}
}
