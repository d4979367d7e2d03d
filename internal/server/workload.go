package server

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"time"

	"oldelephant/internal/engine"
	"oldelephant/internal/sql"
)

// The workload log is the physical-design advisor's input: one record per
// executed statement, normalized so that statements differing only in
// keyword case, whitespace or comments share a fingerprint, with the plan,
// timing, cardinality and I/O facts an advisor needs to find the queries
// worth optimizing. Records live in a bounded in-memory ring (newest win),
// encoded, and are optionally appended as JSONL to a file under the data
// directory, so a workload survives restarts and can be mined offline.

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
// microseconds since the Unix epoch so records round-trip exactly. The
// fingerprint is sql.Normalize of SQL, filled in as the record is read from
// the ring or logged.
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

// newWorkloadRecord builds the record for one finished statement. Its
// version and fingerprint are left to the ring, which stamps the one and
// derives the other from the text when the record is read or logged.
func newWorkloadRecord(sessionID int64, sqlText string, res *engine.Result, wall, queue time.Duration) WorkloadRecord {
	rec := WorkloadRecord{
		TSMicros: time.Now().UnixMicro(),
		Session:  sessionID,
		SQL:      sqlText,
		PlanHash: res.PlanHash,
		WallUS:   wall.Microseconds(),
		QueueUS:  queue.Microseconds(),
		RowsOut:  int64(res.Stats.RowsReturned),
		Cached:   res.Stats.PlanCached,
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

// workloadChunk is the size of one arena chunk of the ring. An entry longer
// than a chunk gets a chunk of its own.
const workloadChunk = 16 << 10

// workloadLog is the bounded ring plus optional JSONL persistence. The ring
// keeps each record once, as one entry in a chunked byte arena: the length
// of the rest, a flag byte, its numbers as varints, its plan hash as 8 bytes
// and its SQL text and trace summary as length-prefixed bytes. Entries are
// appended to the newest chunk and evicted from the oldest, and a chunk goes
// once its last entry is evicted, so the arena holds the live entries plus
// at most two partly used chunks. A record's fingerprint is not kept: it is
// sql.Normalize of the text, computed when the record is read or logged.
type workloadLog struct {
	mu       sync.Mutex
	capacity int
	chunks   [][]byte // oldest first; no entry straddles two
	head     int      // offset of the oldest entry in chunks[0]
	n        int      // entries held
	buf      []byte   // encoding scratch
	total    int64
	f        *os.File
	w        *bufio.Writer
}

func newWorkloadLog(capacity int) *workloadLog {
	if capacity <= 0 {
		capacity = defaultWorkloadRing
	}
	return &workloadLog{capacity: capacity}
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

// append records one statement. The ring ignores rec.V and rec.Fingerprint:
// every record it returns or logs is of WorkloadRecordVersion, with the
// fingerprint of its text.
func (l *workloadLog) append(rec WorkloadRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = appendEntry(l.buf[:0], &rec)
	var pre [binary.MaxVarintLen64]byte
	prefix := binary.AppendUvarint(pre[:0], uint64(len(l.buf)))
	size := len(prefix) + len(l.buf)
	if l.n == l.capacity {
		l.head += entryLen(l.chunks[0][l.head:])
		l.n--
	}
	tail := len(l.chunks) - 1
	if tail < 0 || len(l.chunks[tail])+size > cap(l.chunks[tail]) {
		l.chunks = append(l.chunks, make([]byte, 0, max(workloadChunk, size)))
		tail++
	}
	l.chunks[tail] = append(append(l.chunks[tail], prefix...), l.buf...)
	l.n++
	// Drop the leading chunks whose entries are all evicted.
	for len(l.chunks) > 1 && l.head == len(l.chunks[0]) {
		l.chunks[0] = nil
		l.chunks = l.chunks[1:]
		l.head = 0
	}
	if cap(l.buf) > workloadChunk {
		l.buf = nil // a long statement's scratch is not kept
	}
	l.total++
	if l.w != nil {
		l.persist(rec)
	}
}

// persist writes one record to the JSONL file. Callers hold l.mu.
func (l *workloadLog) persist(rec WorkloadRecord) {
	rec.V, rec.Fingerprint = WorkloadRecordVersion, sql.Normalize(rec.SQL)
	if data, err := json.Marshal(rec); err == nil {
		l.w.Write(data)
		l.w.WriteByte('\n')
		l.w.Flush()
	}
}

// recent returns up to limit most-recent records, oldest first (limit <= 0
// means the whole ring).
func (l *workloadLog) recent(limit int) []WorkloadRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	skip := 0
	if limit > 0 && l.n > limit {
		skip = l.n - limit
	}
	out := make([]WorkloadRecord, 0, l.n-skip)
	off, i := l.head, 0
	for _, chunk := range l.chunks {
		for ; off < len(chunk); i++ {
			n := entryLen(chunk[off:])
			if i >= skip {
				out = append(out, decodeEntry(chunk[off:off+n]))
			}
			off += n
		}
		off = 0
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

// The flag byte of a ring entry.
const (
	entryCached  = 1 << iota
	entryHash8   // the plan hash is 16 lower-case hex digits, held as 8 bytes
	entryHashRaw // any other non-empty plan hash, held as its bytes
)

// appendEntry appends the body of rec's ring entry to dst: a flag byte, the
// eleven numbers as varints, the plan hash, and the text and the trace
// summary, each after its uvarint length.
func appendEntry(dst []byte, rec *WorkloadRecord) []byte {
	var flags byte
	if rec.Cached {
		flags |= entryCached
	}
	hash, isHex := hexHash(rec.PlanHash)
	switch {
	case isHex:
		flags |= entryHash8
	case rec.PlanHash != "":
		flags |= entryHashRaw
	}
	dst = append(dst, flags)
	for _, v := range [...]int64{rec.TSMicros, rec.Session, rec.WallUS, rec.QueueUS, rec.RowsIn, rec.RowsOut,
		rec.IO.PageReads, rec.IO.SeqReads, rec.IO.RandReads, rec.IO.CacheHits, rec.IO.PageWrites} {
		dst = binary.AppendVarint(dst, v)
	}
	switch {
	case isHex:
		dst = binary.BigEndian.AppendUint64(dst, hash)
	case rec.PlanHash != "":
		dst = appendString(dst, rec.PlanHash)
	}
	dst = appendString(dst, rec.SQL)
	return appendString(dst, rec.Trace)
}

// decodeEntry decodes one entry appendEntry wrote, deriving the fingerprint.
func decodeEntry(b []byte) WorkloadRecord {
	_, k := binary.Uvarint(b)
	flags, b := b[k], b[k+1:]
	var nums [11]int64
	for i := range nums {
		nums[i], k = binary.Varint(b)
		b = b[k:]
	}
	rec := WorkloadRecord{
		V:        WorkloadRecordVersion,
		TSMicros: nums[0], Session: nums[1], WallUS: nums[2], QueueUS: nums[3], RowsIn: nums[4], RowsOut: nums[5],
		IO:     WorkloadIO{PageReads: nums[6], SeqReads: nums[7], RandReads: nums[8], CacheHits: nums[9], PageWrites: nums[10]},
		Cached: flags&entryCached != 0,
	}
	switch {
	case flags&entryHash8 != 0:
		rec.PlanHash, b = hex.EncodeToString(b[:8]), b[8:]
	case flags&entryHashRaw != 0:
		rec.PlanHash, b = readString(b)
	}
	rec.SQL, b = readString(b)
	rec.Trace, _ = readString(b)
	rec.Fingerprint = sql.Normalize(rec.SQL)
	return rec
}

// entryLen returns the length of the entry that b starts with.
func entryLen(b []byte) int {
	n, k := binary.Uvarint(b)
	return k + int(n)
}

// hexHash returns the value of a plan hash of 16 lower-case hex digits, the
// form plan.HashText renders, and whether s is of that form.
func hexHash(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return 0, false
		}
	}
	v, err := strconv.ParseUint(s, 16, 64)
	return v, err == nil
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func readString(b []byte) (string, []byte) {
	n, k := binary.Uvarint(b)
	return string(b[k : k+int(n)]), b[k+int(n):]
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
