package server

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"oldelephant/internal/engine"
)

// The workload log is the physical-design advisor's input: one record per
// executed statement, normalized so that statements differing only in
// keyword case, whitespace or comments share a fingerprint, with the plan,
// timing, cardinality and I/O facts an advisor needs to find the queries
// worth optimizing. Records live in a bounded in-memory ring (newest win)
// and are optionally appended as JSONL to a file under the data directory,
// so a workload survives restarts and can be mined offline.

// WorkloadRecordVersion is the version stamped into every record; decoders
// skip records with versions they do not understand, so the format can
// evolve without breaking old logs.
const WorkloadRecordVersion = 1

// defaultWorkloadRing bounds the in-memory workload ring.
const defaultWorkloadRing = 4096

// WorkloadIO is the page-I/O delta attributed to one statement.
type WorkloadIO struct {
	PageReads  int64 `json:"page_reads"`
	SeqReads   int64 `json:"seq_reads"`
	RandReads  int64 `json:"rand_reads"`
	CacheHits  int64 `json:"cache_hits"`
	PageWrites int64 `json:"page_writes"`
}

// WorkloadRecord is one executed statement, as the advisor sees it. The
// struct is versioned (V) and encodes to one JSON line; timestamps are
// microseconds since the Unix epoch so records round-trip exactly.
type WorkloadRecord struct {
	V           int        `json:"v"`
	TSMicros    int64      `json:"ts_us"`
	Session     int64      `json:"session"`
	SQL         string     `json:"sql"`
	Fingerprint string     `json:"fingerprint"`
	PlanHash    string     `json:"plan_hash,omitempty"`
	WallUS      int64      `json:"wall_us"`
	QueueUS     int64      `json:"queue_us"`
	RowsIn      int64      `json:"rows_in,omitempty"`
	RowsOut     int64      `json:"rows_out"`
	IO          WorkloadIO `json:"io"`
	Cached      bool       `json:"cached,omitempty"`
	Trace       string     `json:"trace,omitempty"`
}

// newWorkloadRecord builds the record for one finished statement. The
// fingerprint and plan hash are the strings the engine already computed
// (Result.Fingerprint, Result.PlanHash): a prepared statement's record shares
// its handle's normalized text and a cached plan's hash, so the ring holds no
// copies of either.
func newWorkloadRecord(sessionID int64, sqlText string, res *engine.Result, wall, queue time.Duration) WorkloadRecord {
	rec := WorkloadRecord{
		V:           WorkloadRecordVersion,
		TSMicros:    time.Now().UnixMicro(),
		Session:     sessionID,
		SQL:         sqlText,
		Fingerprint: res.Fingerprint,
		PlanHash:    res.PlanHash,
		WallUS:      wall.Microseconds(),
		QueueUS:     queue.Microseconds(),
		RowsOut:     int64(res.Stats.RowsReturned),
		Cached:      res.Stats.PlanCached,
		IO: WorkloadIO{
			PageReads:  res.Stats.IO.PageReads,
			SeqReads:   res.Stats.IO.SeqReads,
			RandReads:  res.Stats.IO.RandReads,
			CacheHits:  res.Stats.IO.CacheHits,
			PageWrites: res.Stats.IO.PageWrites,
		},
	}
	if res.Trace != nil {
		rec.RowsIn = res.Trace.LeafRows()
		rec.Trace = res.Trace.Summary()
	}
	return rec
}

// workloadLog is the bounded ring plus optional JSONL persistence.
type workloadLog struct {
	mu    sync.Mutex
	ring  []WorkloadRecord
	next  int // ring position of the next append
	total int64
	f     *os.File
	w     *bufio.Writer
}

func newWorkloadLog(capacity int) *workloadLog {
	if capacity <= 0 {
		capacity = defaultWorkloadRing
	}
	return &workloadLog{ring: make([]WorkloadRecord, 0, capacity)}
}

// persistTo opens (creating or appending to) a JSONL file that every
// subsequent record is also written to. Lines are flushed per record — a
// crash can tear at most the final line, which readers tolerate.
func (l *workloadLog) persistTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.mu.Lock()
	if l.f != nil {
		l.w.Flush()
		l.f.Close()
	}
	l.f, l.w = f, bufio.NewWriter(f)
	l.mu.Unlock()
	return nil
}

// append records one statement.
func (l *workloadLog) append(rec WorkloadRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, rec)
	} else {
		l.ring[l.next] = rec
		l.next = (l.next + 1) % cap(l.ring)
	}
	l.total++
	if l.w != nil {
		if data, err := json.Marshal(rec); err == nil {
			l.w.Write(data)
			l.w.WriteByte('\n')
			l.w.Flush()
		}
	}
}

// recent returns up to limit most-recent records, oldest first (limit <= 0
// means the whole ring).
func (l *workloadLog) recent(limit int) []WorkloadRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ring)
	out := make([]WorkloadRecord, 0, n)
	if len(l.ring) < cap(l.ring) {
		out = append(out, l.ring...)
	} else {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// count returns the total number of records ever appended.
func (l *workloadLog) count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// close flushes and closes the persistence file, if any.
func (l *workloadLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.w.Flush()
	err := l.f.Close()
	l.f, l.w = nil, nil
	return err
}

// ReadWorkloadLog decodes a JSONL workload log. A torn final line (crash
// mid-append) is tolerated and skipped; records with an unknown version are
// skipped rather than failing the read, so newer logs degrade gracefully.
func ReadWorkloadLog(path string) ([]WorkloadRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []WorkloadRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec WorkloadRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn tail or foreign line: stop at the first undecodable line.
			break
		}
		if rec.V != WorkloadRecordVersion {
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil && len(out) == 0 {
		return nil, err
	}
	return out, nil
}
