package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/sql"
)

// recordOf is the record a ring of WorkloadRecord values holds for a
// statement that answered res: every field from the statement and its
// result, the fingerprint sql.Normalize's, and the timings the server
// measured.
func recordOf(session int64, text string, res *engine.Result, ts, wall, queue int64) WorkloadRecord {
	rec := WorkloadRecord{
		V: WorkloadRecordVersion, TSMicros: ts, Session: session,
		SQL: text, Fingerprint: sql.Normalize(text), PlanHash: res.PlanHash,
		WallUS: wall, QueueUS: queue, RowsOut: int64(res.Stats.RowsReturned), Cached: res.Stats.PlanCached,
		IO: WorkloadIO{
			PageReads: res.Stats.IO.PageReads, SeqReads: res.Stats.IO.SeqReads, RandReads: res.Stats.IO.RandReads,
			CacheHits: res.Stats.IO.CacheHits, PageWrites: res.Stats.IO.PageWrites,
		},
	}
	if res.Trace != nil {
		rec.RowsIn, rec.Trace = res.Trace.LeafRows(), res.Trace.Summary()
	}
	return rec
}

// TestWorkloadRingMatchesRecordValues holds the encoded ring to a ring of
// WorkloadRecord values over a served history of ad-hoc and respelled
// SELECTs, point lookups sharing a shape, per-text prepared statements,
// INSERTs and a traced EXPLAIN ANALYZE: Server.Workload returns every field,
// the JSONL log has the keys and values of the records' JSON encoding and
// reads back whole, and the ring wraps at exactly defaultWorkloadRing.
func TestWorkloadRingMatchesRecordValues(t *testing.T) {
	srv := newTestServer(t, 500, Options{})
	defer srv.Close()
	path := filepath.Join(t.TempDir(), "workload.jsonl")
	if err := srv.LogWorkloadTo(path); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 4; i++ {
		if err := sess.Prepare(fmt.Sprintf("seek%d", i), fmt.Sprintf("SELECT grp, amount FROM items WHERE id = %d", 10*i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Prepare("bygrp", "SELECT grp, COUNT(*)\n FROM items -- per group\n GROUP BY grp;"); err != nil {
		t.Fatal(err)
	}
	steps := []struct{ op, text string }{
		{"query", "SELECT COUNT(*) FROM items WHERE id < 100"},
		{"query", "select  count(*)\nFROM Items where ID < 100;"},
		{"exec", "seek0"}, {"exec", "seek1"}, {"exec", "seek2"}, {"exec", "seek3"}, {"exec", "seek1"},
		{"exec", "bygrp"}, {"exec", "bygrp"},
		{"execute", "INSERT INTO items (id, grp, amount) VALUES (9001, 1, 2.5)"},
		{"exec", "seek0"},
		{"execute", "EXPLAIN ANALYZE SELECT grp, SUM(amount) FROM items WHERE amount > 50 GROUP BY grp"},
		{"execute", "SELECT amount FROM items WHERE id = 7"},
		{"execute", "INSERT INTO items VALUES (9002, 2, -1.5), (9003, 3, 0.0)"},
		{"query", "SELECT 'it''s', \"grp\" FROM items WHERE id = 9002"},
	}
	var want []WorkloadRecord
	for _, step := range steps {
		before := time.Now().UnixMicro()
		var res *engine.Result
		text := step.text
		switch step.op {
		case "exec":
			res, err = sess.ExecPrepared(step.text)
			text = sess.prepared[step.text].Text
		case "query":
			res, err = sess.Query(step.text)
		default:
			res, err = sess.Execute(step.text)
		}
		if err != nil {
			t.Fatalf("%s: %v", step.text, err)
		}
		recs := srv.Workload(1)
		got := recs[0]
		if got.TSMicros < before || got.TSMicros > time.Now().UnixMicro() || got.WallUS < got.QueueUS || got.QueueUS < 0 {
			t.Errorf("%s: timings ts %d wall %d queue %d", text, got.TSMicros, got.WallUS, got.QueueUS)
		}
		want = append(want, recordOf(sess.id, text, res, got.TSMicros, got.WallUS, got.QueueUS))
	}
	if got := srv.Workload(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring:\n got %+v\nwant %+v", got, want)
	}
	for _, limit := range []int{1, 5, len(want), len(want) + 1} {
		if got := srv.Workload(limit); !reflect.DeepEqual(got, want[max(0, len(want)-limit):]) {
			t.Errorf("Workload(%d) = %+v", limit, got)
		}
	}
	if !want[2].Cached && !want[3].Cached || want[11].Trace == "" || want[1].Fingerprint != want[0].Fingerprint {
		t.Errorf("the history is degenerate: %+v", want)
	}

	// The log: the keys and values of each record's JSON encoding, line by
	// line, and ReadWorkloadLog reads back the ring.
	if err := srv.CloseWorkloadLog(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for ; sc.Scan(); n++ {
		var line, enc map[string]any
		data, _ := json.Marshal(want[n])
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &enc); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(line, enc) {
			t.Errorf("line %d:\n got %v\nwant %v", n, line, enc)
		}
	}
	if n != len(want) {
		t.Fatalf("log holds %d lines, want %d", n, len(want))
	}
	if onDisk, err := ReadWorkloadLog(path); err != nil || !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("ReadWorkloadLog: %v\n got %+v\nwant %+v", err, onDisk, want)
	}

	// The ring keeps the newest defaultWorkloadRing records of a longer
	// history, oldest first.
	l := newWorkloadLog(0)
	var all []WorkloadRecord
	for i := 0; i < defaultWorkloadRing+len(want)+3; i++ {
		rec := want[i%len(want)]
		rec.TSMicros += int64(i)
		all = append(all, rec)
		l.append(rec)
		if i == defaultWorkloadRing-1 || i == defaultWorkloadRing {
			if got := l.recent(0); len(got) != defaultWorkloadRing || got[0] != all[i+1-defaultWorkloadRing] {
				t.Fatalf("after %d appends the ring holds %d records, the oldest %+v", i+1, len(got), got[0])
			}
		}
	}
	for _, limit := range []int{0, 1, 100, defaultWorkloadRing, defaultWorkloadRing + 1} {
		want := all[len(all)-defaultWorkloadRing:]
		if limit > 0 && limit < len(want) {
			want = want[len(want)-limit:]
		}
		if got := l.recent(limit); !reflect.DeepEqual(got, want) {
			t.Errorf("recent(%d): %d records, want %d", limit, len(got), len(want))
		}
	}
	if l.count() != int64(len(all)) {
		t.Errorf("count = %d, want %d", l.count(), len(all))
	}
}

// FuzzWorkloadRing appends records of arbitrary texts and numbers through a
// small ring: recent returns exactly the newest records, field for field,
// each with the fingerprint of its text.
func FuzzWorkloadRing(f *testing.F) {
	f.Add("SELECT 1", "", int64(1), int64(0), uint64(0), uint8(3), uint8(5))
	f.Add("", "Scan rows=1", int64(math.MinInt64), int64(math.MaxInt64), uint64(math.MaxUint64), uint8(0), uint8(9))
	f.Add("select 'a''b' -- c\n;", "\xff\x00\x80", int64(-1), int64(1<<62), uint64(0xdeadbeef), uint8(7), uint8(31))
	f.Add(strings.Repeat("SELECT x FROM t ", 2000), strings.Repeat("\x00", 20000), int64(1), int64(2), uint64(3), uint8(1), uint8(6))
	f.Fuzz(func(t *testing.T, text, summary string, a, b int64, hash uint64, capacity, n uint8) {
		l := newWorkloadLog(int(capacity%8) + 1)
		var all []WorkloadRecord
		for i := 0; i < int(n%32); i++ {
			rec := WorkloadRecord{
				V: WorkloadRecordVersion, TSMicros: a + int64(i), Session: b ^ int64(i),
				SQL: strings.Repeat(text, i%3), WallUS: b, QueueUS: -a, RowsIn: a * b, RowsOut: math.MinInt64 + int64(i),
				IO:     WorkloadIO{PageReads: a, SeqReads: b, RandReads: math.MaxInt64, CacheHits: int64(hash), PageWrites: -b},
				Cached: i%2 == 0,
			}
			switch i % 4 {
			case 1:
				rec.PlanHash = fmt.Sprintf("%016x", hash+uint64(i))
			case 2:
				rec.PlanHash = fmt.Sprintf("%016X", hash)
			case 3:
				rec.PlanHash = summary
			}
			if i%3 != 1 {
				rec.Trace = summary
			}
			rec.Fingerprint = sql.Normalize(rec.SQL)
			all = append(all, rec)
			in := rec
			in.V, in.Fingerprint = 0, "stale" // the ring stamps both
			l.append(in)
		}
		want := all[max(0, len(all)-l.capacity):]
		if got := l.recent(0); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("recent(0):\n got %+v\nwant %+v", got, want)
		}
		if len(want) > 1 {
			if got := l.recent(1); len(got) != 1 || !reflect.DeepEqual(got[0], want[len(want)-1]) {
				t.Fatalf("recent(1) = %+v, want %+v", got, want[len(want)-1])
			}
		}
	})
}
