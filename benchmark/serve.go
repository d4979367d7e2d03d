package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	elephant "oldelephant"
	"oldelephant/internal/trace"
)

// serve_mixed: the engine behind its TCP server over a durable directory.
// By operation count 60% prepared point seeks on orders, 15% ad-hoc clustered
// range scans of lineitem with fresh literals, 25% single-row durable inserts.
// Each caller is one connection that waits for its reply, as a SQL client does.

const (
	blockOps    = 500  // one pass: a seeded block of operations on one connection
	seekShare   = 0.60 // then scans up to scanUpTo, then inserts
	scanUpTo    = 0.75
	hotKeys     = 1024 // prepared point seeks: four times the plan cache
	zipfS       = 1.1
	scanFormat  = "SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_orderkey >= %d AND l_orderkey <= %d"
	eventsDDL   = "CREATE TABLE events (id BIGINT, sym VARCHAR(8), ts BIGINT, qty DOUBLE, note VARCHAR(32), PRIMARY KEY (id))"
	insertFmt   = "INSERT INTO events VALUES (%d, 'S%03d', %d, %d.5, 'block %d')"
	callerIDGap = 1_000_000_000 // each connection inserts ids in its own range
)

type opKind uint8

const (
	opSeek opKind = iota
	opScan
	opInsert
)

var opNames = [...]string{"seek", "scan", "insert"}

// operation is one generated request and, once it has run, the answer that
// is checked against the oracle after the window.
type operation struct {
	kind   opKind
	key    int64  // seek: the order key; insert: the id
	lo, hi int    // scan: indexes into the sorted order keys
	text   string // dropped once sent: only the answer is kept for the check

	failed bool
	cust   int64   // seek answer
	price  float64 // seek answer
	date   string  // seek answer
	count  int64   // scan answer
	sum    float64 // scan answer
}

// wire shapes: the benchmark's own copy of the newline-JSON protocol.
type wireRequest struct {
	Op    string `json:"op"`
	SQL   string `json:"sql,omitempty"`
	Name  string `json:"name,omitempty"`
	Limit *int   `json:"limit,omitempty"`
}

type wireResponse struct {
	OK      bool        `json:"ok"`
	Error   string      `json:"error"`
	Rows    [][]any     `json:"rows"`
	WallUS  int64       `json:"wall_us"`
	Trace   *trace.Span `json:"trace"`
	Metrics *struct {
		Errors   int64 `json:"errors"`
		Rejected int64 `json:"rejected"`
		Waits    int64 `json:"admission_waits"`
	} `json:"metrics"`
	Workload []struct {
		QueueUS int64 `json:"queue_us"`
	} `json:"workload"`
}

// client is one connection. The latency timer covers writing the request
// line and reading the reply line; decoding happens outside it.
type client struct {
	id   int
	conn net.Conn
	r    *bufio.Reader
	next int64 // next insert id
}

func dial(addr string, id int) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{id: id, conn: conn, r: bufio.NewReaderSize(conn, 64<<10), next: int64(id+1) * callerIDGap}, nil
}

func (c *client) call(req wireRequest) (wireResponse, time.Duration, error) {
	line, err := json.Marshal(req)
	if err != nil {
		return wireResponse{}, 0, err
	}
	line = append(line, '\n')
	start := time.Now()
	if _, err := c.conn.Write(line); err != nil {
		return wireResponse{}, 0, err
	}
	reply, err := c.r.ReadBytes('\n')
	took := time.Since(start)
	if err != nil {
		return wireResponse{}, took, err
	}
	var resp wireResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return resp, took, fmt.Errorf("bad reply: %w", err)
	}
	if !resp.OK {
		return resp, took, fmt.Errorf("server: %s", resp.Error)
	}
	return resp, took, nil
}

func (c *client) close() {
	_, _, _ = c.call(wireRequest{Op: "close"}) // the server ends the session; Close below releases the socket either way
	c.conn.Close()
}

func seekName(key int64) string { return fmt.Sprintf("seek%d", key) }

// server is the built state of one serve_mixed set-up.
type server struct {
	dir     string
	db      *elephant.DB
	srv     *elephant.Server
	served  chan error
	clients []*client
	keys    []int64 // every order key, ascending
	hot     []int64 // the prepared point seeks' keys, hottest first

	basePages, dataPages int
	loadS                float64
}

func callers() int { return min(runtime.NumCPU(), maxCallers) }

// buildServe opens a fresh durable directory, loads the base tables, creates
// the insert target, checkpoints, starts the server on a loopback port and
// connects the callers, each preparing the hot point seeks.
func buildServe(dir string, sf float64, seed int64) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	db, err := elephant.OpenDir(dir, engineOptions())
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	s := &server{dir: dir, db: db}
	start := time.Now()
	if err := db.LoadTPCH(sf); err != nil {
		return nil, fmt.Errorf("load TPC-H: %w", err)
	}
	s.loadS = time.Since(start).Seconds()
	s.basePages = db.TotalDataPages()
	if _, err := db.Execute(eventsDDL); err != nil {
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s.dataPages = db.TotalDataPages()

	if s.keys, err = orderKeys(db); err != nil {
		return nil, err
	}
	sort.Slice(s.keys, func(i, j int) bool { return s.keys[i] < s.keys[j] })
	s.hot = sampleKeys(s.keys, hotKeys, seed)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = db.Serve(elephant.ServerOptions{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := 0; i < callers(); i++ {
		c, err := dial(ln.Addr().String(), i)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
		for _, k := range s.hot {
			if _, _, err := c.call(wireRequest{Op: "prepare", Name: seekName(k), SQL: fmt.Sprintf(seekFormat, k)}); err != nil {
				return nil, fmt.Errorf("prepare: %w", err)
			}
		}
	}
	return s, nil
}

// stop closes the connections, the server and the database, and waits for
// the accept loop to end.
func (s *server) stop() error {
	for _, c := range s.clients {
		c.close()
	}
	err := s.srv.Close()
	if serr := <-s.served; err == nil {
		err = serr
	}
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// block generates one connection's next block from its own seeded stream.
// The program sees only the generated SQL.
func (s *server) block(c *client, rng *rand.Rand, zipf *rand.Zipf, number int) []operation {
	ops := make([]operation, blockOps)
	for i := range ops {
		switch u := rng.Float64(); {
		case u < seekShare:
			k := s.hot[zipf.Uint64()]
			ops[i] = operation{kind: opSeek, key: k}
		case u < scanUpTo:
			// 400 to 2,000 of 30,000 orders, as a share so a smaller scale keeps the shape.
			n := len(s.keys)/75 + rng.Intn(len(s.keys)/15-len(s.keys)/75+1)
			lo := rng.Intn(len(s.keys) - n)
			ops[i] = operation{kind: opScan, lo: lo, hi: lo + n - 1,
				text: fmt.Sprintf(scanFormat, s.keys[lo], s.keys[lo+n-1])}
		default:
			c.next++
			ops[i] = operation{kind: opInsert, key: c.next,
				text: fmt.Sprintf(insertFmt, c.next, rng.Intn(1000), c.next, rng.Intn(1000), number)}
		}
	}
	return ops
}

// perform sends one operation and records its answer. In the traced phase
// (rec non-nil) reads go as EXPLAIN ANALYZE so the reply carries the
// program's operator tree; their answers are then plan text, not checked.
func (c *client) perform(o *operation, rec *recorder, opID int) (time.Duration, int64, error) {
	req := wireRequest{Op: "query", SQL: o.text}
	switch {
	case o.kind == opSeek && rec == nil:
		req = wireRequest{Op: "exec", Name: seekName(o.key)}
	case o.kind == opSeek:
		req.SQL = "EXPLAIN ANALYZE " + fmt.Sprintf(seekFormat, o.key)
	case o.kind == opScan && rec != nil:
		req.SQL = "EXPLAIN ANALYZE " + o.text
	}
	root := rec.root(opID, "op:"+opNames[o.kind])
	trip := rec.child(root, "server.roundtrip")
	resp, took, err := c.call(req)
	rec.end(trip)
	if rec != nil && err == nil {
		// The reply reports the engine's wall time but not when it began;
		// centre it in the round trip, the wire taking the rest.
		wall := min(time.Duration(resp.WallUS)*time.Microsecond, took)
		i := rec.child(trip, "engine.execute")
		rec.spans[i].Start = rec.spans[trip].Start + int64(took-wall)/2
		rec.spans[i].End = rec.spans[i].Start + int64(wall)
		rec.graft(i, resp.Trace)
	}
	rec.end(root)
	if err != nil {
		return took, 0, err
	}
	if rec == nil {
		err = o.record(resp.Rows)
	}
	return took, resp.WallUS, err
}

// record keeps a read's answer for the check after the window.
func (o *operation) record(rows [][]any) error {
	num := func(v any) (float64, error) {
		f, ok := v.(float64)
		if !ok {
			return 0, fmt.Errorf("%s: %v is not a number", opNames[o.kind], v)
		}
		return f, nil
	}
	switch o.kind {
	case opSeek:
		if len(rows) != 1 || len(rows[0]) != 3 {
			return fmt.Errorf("seek %d: %d rows", o.key, len(rows))
		}
		cust, err := num(rows[0][0])
		if err != nil {
			return err
		}
		if o.price, err = num(rows[0][1]); err != nil {
			return err
		}
		o.cust = int64(cust)
		o.date, _ = rows[0][2].(string)
	case opScan:
		if len(rows) != 1 || len(rows[0]) != 2 {
			return fmt.Errorf("scan: %d rows", len(rows))
		}
		count, err := num(rows[0][0])
		if err != nil {
			return err
		}
		if o.sum, err = num(rows[0][1]); err != nil {
			return err
		}
		o.count = int64(count)
	}
	return nil
}

// servePhase is one stretch of blocks on every connection.
type servePhase struct {
	phase
	wireUS  []float64   // round trip less the reply's wall_us
	busyMS  [3]float64  // summed latency by kind
	done    []operation // every operation's answer, for the check after the window
	heapMiB float64     // live heap after heapAfterRounds rounds
	spans   []span
}

// blockResult is one connection's share of a round.
type blockResult struct {
	ops    []operation
	latMS  []float64 // per operation
	wireUS []float64
	wallMS float64
	errs   []string
}

// runBlock generates and performs one block on one connection.
func (s *server) runBlock(c *client, seed int64, number int, rec *recorder) blockResult {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c.id)*7919 + int64(number)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(s.hot)-1))
	b := blockResult{ops: s.block(c, rng, zipf, number)}
	start := time.Now()
	for i := range b.ops {
		o := &b.ops[i]
		took, wallUS, err := c.perform(o, rec, number*blockOps+i+1)
		b.latMS = append(b.latMS, float64(took)/1e6)
		b.wireUS = append(b.wireUS, float64(took)/1e3-float64(wallUS))
		if o.failed = err != nil; o.failed {
			b.errs = append(b.errs, fmt.Sprintf("%s: %v", opNames[o.kind], err))
		}
		o.text = ""
	}
	b.wallMS = float64(time.Since(start)) / 1e6
	return b
}

// heapAfterRounds is the round after which the live heap is read. The answers
// kept for the oracle and the inserted rows grow with every operation, so a
// reading taken when the window ends would grow with throughput; after a fixed
// number of operations it is the same program state on a fast and a slow run.
// A window that ends sooner (the smoke test's) is read when it ends.
const heapAfterRounds = 4

// blocks runs rounds until the time is up: in a round every connection
// performs one block, all at once; between rounds, with the server idle, the
// reference kernel is timed. A pass is one block's wall time on its connection.
func (s *server) blocks(seconds float64, seed int64, firstBlock int, traced bool, t *tally) servePhase {
	out := servePhase{phase: phase{selective: []string{"seek"}, bulk: []string{"scan"},
		callers: len(s.clients), opsPerPass: blockOps, lat: make(map[string][]float64)}}
	alloc0 := totalAlloc()
	origin := time.Now()
	deadline := origin.Add(time.Duration(seconds * float64(time.Second)))
	recs := make([]*recorder, len(s.clients))
	if traced {
		for i, c := range s.clients {
			recs[i] = newRecorder(origin, (c.id+1)*100_000_000)
		}
	}
	for number := firstBlock; number == firstBlock || time.Now().Before(deadline); number++ {
		results := make([]blockResult, len(s.clients))
		cpu0 := cpuSeconds()
		var wg sync.WaitGroup
		for i, c := range s.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = s.runBlock(c, seed, number, recs[i])
			}()
		}
		wg.Wait()
		out.cpuS += cpuSeconds() - cpu0
		out.kernel = append(out.kernel, refKernelMS())
		for _, b := range results {
			for i, o := range b.ops {
				name := opNames[o.kind]
				out.lat[name] = append(out.lat[name], b.latMS[i])
				out.busyMS[o.kind] += b.latMS[i]
			}
			for _, e := range b.errs {
				t.fail("%s", e)
			}
			out.ops += len(b.ops)
			out.wireUS = append(out.wireUS, b.wireUS...)
			out.passes = append(out.passes, b.wallMS)
			out.done = append(out.done, b.ops...)
		}
		if number-firstBlock+1 == heapAfterRounds {
			out.heapMiB = liveHeapMiB()
		}
	}
	for _, rec := range recs {
		if rec != nil {
			out.spans = append(out.spans, rec.spans...)
		}
	}
	out.allocB = totalAlloc() - alloc0
	return out
}

// serveOracle is a second engine, row-at-a-time and serial, over the same
// generated data: the orders rows the seeks must return and, per order in
// key order, running line-item counts and quantity sums the scans must match.
type serveOracle struct {
	orders map[int64][3]any // custkey, totalprice, orderdate text
	counts []int64          // prefix sums aligned with the sorted keys, one longer
	sums   []float64
}

func buildServeOracle(sf float64, keys []int64) (*serveOracle, error) {
	db := elephant.Open(elephant.Options{DisableVectorized: true, Parallelism: 1})
	if err := db.LoadTPCH(sf); err != nil {
		return nil, fmt.Errorf("oracle: load TPC-H: %w", err)
	}
	o := &serveOracle{orders: make(map[int64][3]any), counts: make([]int64, len(keys)+1), sums: make([]float64, len(keys)+1)}
	res, err := db.Query("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders")
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		o.orders[row[0].I] = [3]any{row[1].I, row[2].F, row[3].String()}
	}
	res, err = db.Query("SELECT l_orderkey, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_orderkey")
	if err != nil {
		return nil, err
	}
	perOrder := make(map[int64][2]float64, len(res.Rows))
	for _, row := range res.Rows {
		perOrder[row[0].I] = [2]float64{float64(row[1].I), row[2].F}
	}
	for i, k := range keys {
		o.counts[i+1] = o.counts[i] + int64(perOrder[k][0])
		o.sums[i+1] = o.sums[i] + perOrder[k][1]
	}
	return o, nil
}

// check holds every recorded read against the oracle.
func (o *serveOracle) check(done []operation, t *tally) {
	for i := range done {
		op := &done[i]
		if op.failed {
			continue // counted when it failed
		}
		switch op.kind {
		case opSeek:
			want := o.orders[op.key]
			if want != [3]any{op.cust, op.price, op.date} {
				t.fail("seek %d: (%d, %v, %s), want %v", op.key, op.cust, op.price, op.date, want)
				continue
			}
		case opScan:
			count := o.counts[op.hi+1] - o.counts[op.lo]
			sum := o.sums[op.hi+1] - o.sums[op.lo]
			if op.count != count || math.Abs(op.sum-sum) > floatTolerance*math.Abs(sum) {
				t.fail("scan [%d, %d]: (%d, %v), want (%d, %v)", op.lo, op.hi, op.count, op.sum, count, sum)
				continue
			}
		}
		t.ok()
	}
}

// crashImage copies the data files as they are, without Close, opens the copy
// and requires every acknowledged insert in it. The operating system's cache
// survives this, so it shows that recovery finds what was acknowledged, not
// that the bytes reached the device; torn and unflushed writes are the tier-1
// faultfs crash matrix's job.
func (s *server) crashImage(acked []int64, t *tally) (recoveryS float64, lost int, err error) {
	image := s.dir + ".crash"
	if err := os.RemoveAll(image); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(image)
	if err := copyDir(s.dir, image); err != nil {
		return 0, 0, fmt.Errorf("copy crash image: %w", err)
	}
	start := time.Now()
	db, err := elephant.OpenDir(image, engineOptions())
	if err != nil {
		return 0, 0, fmt.Errorf("open crash image: %w", err)
	}
	recoveryS = time.Since(start).Seconds()
	defer db.Close()
	res, err := db.Query("SELECT id FROM events")
	if err != nil {
		return 0, 0, err
	}
	present := make(map[int64]bool, len(res.Rows))
	var sum int64
	for _, row := range res.Rows {
		present[row[0].I] = true
		sum += row[0].I
	}
	var wantSum int64
	for _, id := range acked {
		wantSum += id
		if !present[id] {
			lost++
		}
	}
	agg, err := db.Query("SELECT COUNT(*), SUM(id) FROM events")
	if err != nil {
		return 0, 0, err
	}
	switch {
	case lost > 0:
		t.fail("crash image lost %d of %d acknowledged inserts", lost, len(acked))
	case len(res.Rows) != len(acked) || sum != wantSum:
		t.fail("crash image holds %d events summing to %d, acknowledged %d summing to %d", len(res.Rows), sum, len(acked), wantSum)
	case agg.Rows[0][0].I != int64(len(acked)) || (len(acked) > 0 && agg.Rows[0][1].Int() != wantSum):
		t.fail("crash image: COUNT(*), SUM(id) = %v, want (%d, %d)", agg.Rows[0], len(acked), wantSum)
	default:
		t.ok()
	}
	return recoveryS, lost, nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func ackedInserts(phases ...servePhase) []int64 {
	var ids []int64
	for _, p := range phases {
		for i := range p.done {
			if o := &p.done[i]; o.kind == opInsert && !o.failed {
				ids = append(ids, o.key)
			}
		}
	}
	return ids
}

// countedBlocks is how many seeded blocks' reads the counted pass covers:
// enough that the mean scan length, which the seed draws, moves the result by
// less than a third of modeled_disk_cost's bound from seed to seed.
const countedBlocks = 8

// countedReads is the paper's cost of the workload's reads: each seek and scan
// of a few seeded blocks once from a single in-process caller, cold, serial
// and unplanned.
func (s *server) countedReads(seed int64, t *tally) counted {
	c := counted{cost: make(map[string]float64)}
	scratch := &client{}
	rng := rand.New(rand.NewSource(seed*1_000_003 - 1))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(s.hot)-1))
	for b := 0; b < countedBlocks; b++ {
		for i, o := range s.block(scratch, rng, zipf, b) {
			text := o.text
			switch o.kind {
			case opInsert:
				continue
			case opSeek:
				text = fmt.Sprintf(seekFormat, o.key)
			}
			c.add(s.db, fmt.Sprintf("%s %d.%d", opNames[o.kind], b, i), t,
				func() (*elephant.Result, error) { return s.db.QueryWith(coldSerial, text) })
		}
	}
	return c
}

// warmServe runs one untimed block on every connection. Its inserts are
// acknowledged like any other, so the crash-image check needs them.
func (s *server) warmServe(seed int64) (servePhase, error) {
	var t tally
	p := s.blocks(0, seed, -1, false, &t)
	if t.failed > 0 {
		return p, fmt.Errorf("warm block: %s", t.notes[0])
	}
	return p, nil
}

func runServe(cfg runConfig) (*outcome, error) {
	out := &outcome{report: newReport()}
	t := &out.tally
	dir := filepath.Join(cfg.outDir, "serve_mixed.data")
	defer os.RemoveAll(dir)

	start := time.Now()
	s, err := buildServe(dir, cfg.sf, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			_ = s.stop() // an earlier error is being returned; the files are removed next
		}
	}()
	warm, err := s.warmServe(cfg.seed)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(start).Seconds()
	runtime.GC()

	r := out.report
	if cfg.trace {
		if err := s.traced(cfg, warm, out); err != nil {
			return nil, err
		}
	} else {
		p := s.blocks(cfg.seconds, cfg.seed, 0, false, t)
		if p.heapMiB == 0 {
			p.heapMiB = liveHeapMiB()
		}
		c := s.countedReads(cfg.seed, t)
		if _, _, err := s.crashImage(ackedInserts(warm, p), t); err != nil {
			return nil, err
		}
		oracle, err := buildServeOracle(cfg.sf, s.keys)
		if err != nil {
			return nil, err
		}
		oracle.check(p.done, t)

		r.set("setup_s", setupS, 1)
		r.set("modeled_disk_cost", c.meanCost(), len(c.cost))
		r.set("space_amp", float64(s.dataPages)/float64(s.basePages), 1)
		r.set("heap_live_mb", p.heapMiB, 1)
		out.extra = append(out.extra, p.diagnostics(),
			fmt.Sprintf("insert share of busy time %.3f", insertShare(p)))
	}
	err = s.stop()
	s = nil
	return out, err
}

func insertShare(p servePhase) float64 {
	return ratio(p.busyMS[opInsert], p.busyMS[opSeek]+p.busyMS[opScan]+p.busyMS[opInsert])
}

// traced is the --trace 1 run of serve_mixed: half the window as a client
// drives it with counters read before and after, half with a span around
// every round trip and reads sent as EXPLAIN ANALYZE, then the probes.
func (s *server) traced(cfg runConfig, warm servePhase, out *outcome) error {
	r, t := out.report, &out.tally
	cache0, io0, wal0 := s.db.PlanCacheStats(), s.db.Pager().Stats(), s.db.WALStats()
	user := s.blocks(cfg.seconds/2, cfg.seed, 0, false, t)
	cache1, io1, wal1 := s.db.PlanCacheStats(), s.db.Pager().Stats(), s.db.WALStats()
	traced := s.blocks(cfg.seconds/2, cfg.seed, 1_000_000, true, t)
	for i := range traced.done {
		if !traced.done[i].failed {
			t.ok() // traced reads return plan text; only success is checked
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	selfTimes(traced.spans)
	if err := writeSpans(filepath.Join(cfg.outDir, cfg.workload+".spans.jsonl"), traced.spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	// The server's own view, over the wire.
	c := s.clients[0]
	var pings []float64
	for i := 0; i < 200; i++ {
		_, took, err := c.call(wireRequest{Op: "ping"})
		if err != nil {
			return err
		}
		pings = append(pings, float64(took)/1e3)
	}
	limit := 4096
	wl, _, err := c.call(wireRequest{Op: "workload", Limit: &limit})
	if err != nil {
		return err
	}
	var queue []float64
	for _, rec := range wl.Workload {
		queue = append(queue, float64(rec.QueueUS))
	}
	m, _, err := c.call(wireRequest{Op: "metrics"})
	if err != nil {
		return err
	}
	r.set("server.ping_us", p25(pings), len(pings))
	r.set("server.wire_us", p25(user.wireUS), len(user.wireUS))
	r.set("server.queue_us", mean(queue), len(queue))
	r.set("server.admission_waits", float64(m.Metrics.Waits), 1)
	r.set("server.rejected", float64(m.Metrics.Rejected), 1)
	r.set("server.errors", float64(m.Metrics.Errors), 1)
	r.set("server.seek_p99_ms", quantile(user.lat["seek"], 0.99), len(user.lat["seek"]))
	r.set("server.range_p95_ms", quantile(user.lat["scan"], 0.95), len(user.lat["scan"]))

	hits := cache1.Hits - cache0.Hits
	lookups := hits + cache1.StmtHits - cache0.StmtHits + cache1.Misses - cache0.Misses
	r.set("engine.plancache_hit_rate", ratio(float64(hits), float64(lookups)), int(lookups))
	r.set("engine.plancache_evictions", float64(cache1.Evictions-cache0.Evictions), 1)
	r.set("engine.alloc_kb_per_op", float64(user.allocB)/1024/float64(user.ops), user.ops)

	// The crash image is taken before the in-process probes write anything.
	recoveryS, lost, err := s.crashImage(ackedInserts(warm, user, traced), t)
	if err != nil {
		return err
	}
	walSizeMB := float64(s.db.WALSize()) / (1 << 20)

	seek, err := probeSeek(s.db, cfg.seed)
	if err != nil {
		return err
	}
	r.set("engine.cold_minus_prepared_us", seek.coldUS-seek.preparedUS, seek.samples)
	var texts []string // what the engine parses and plans here: seeks and scans, eight of each
	for _, k := range s.hot[:8] {
		texts = append(texts, fmt.Sprintf(seekFormat, k))
	}
	for i := 0; i < len(user.done) && len(texts) < 16; i++ {
		if o := user.done[i]; o.kind == opScan {
			texts = append(texts, fmt.Sprintf(scanFormat, s.keys[o.lo], s.keys[o.hi]))
		}
	}
	if err := probeParsePlan(s.db, texts, r); err != nil {
		return err
	}
	setZero(r, "matview.", "rewrite.", "ctable.", "colstore.", "paper.")
	setExecMetrics(r, traced.spans, traced.ops)
	r.set("exec.parallel_speedup", 0, 0) // sessions run serial plans: morsel parallelism is not exercised
	scanNS, scanRows, err := probeScan(s.db)
	if err != nil {
		return err
	}
	r.set("catalog.scan_ns_per_row", scanNS, scanRows)
	r.set("catalog.seek_us", seek.preparedUS, seek.samples)
	r.set("btree.pages_per_seek", seek.pagesPerSeek, seek.samples)
	r.set("tpch.load_s", s.loadS, 1)

	reads := s.countedReads(cfg.seed, t)
	io := io1.Sub(io0)
	reads.setStorage(r)
	r.set("storage.hit_rate", ratio(float64(io.CacheHits), float64(io.CacheHits+io.PageReads)), user.ops)
	r.set("storage.page_writes", float64(io.PageWrites), 1)
	r.set("storage.data_pages", float64(s.dataPages), 1)

	commits := wal1.Commits - wal0.Commits
	r.set("wal.commits", float64(commits), 1)
	r.set("wal.fsyncs_per_commit", ratio(float64(wal1.Syncs-wal0.Syncs), float64(commits)), int(commits))
	r.set("wal.bytes_per_commit", ratio(float64(wal1.BytesWritten-wal0.BytesWritten), float64(commits)), int(commits))
	r.set("wal.commit_p50_ms", median(user.lat["insert"]), len(user.lat["insert"]))
	r.set("wal.commit_p95_ms", quantile(user.lat["insert"], 0.95), len(user.lat["insert"]))
	id := 0 // in-process inserts take ids below every connection's range
	inproc, err := timeUS(50, func() error {
		id++
		_, err := s.db.Execute(fmt.Sprintf(insertFmt, id, 0, id, 0, -1))
		return err
	})
	if err != nil {
		return fmt.Errorf("in-process insert: %w", err)
	}
	r.set("wal.commit_us_inproc", inproc, 50)
	r.set("wal.size_mb_end", walSizeMB, 1)
	start := time.Now()
	if err := s.db.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	r.set("wal.checkpoint_s", time.Since(start).Seconds(), 1)
	r.set("wal.recovery_s", recoveryS, 1)
	r.set("wal.acked_lost", float64(lost), len(ackedInserts(user, traced)))

	oracleStart := time.Now()
	oracle, err := buildServeOracle(cfg.sf, s.keys)
	if err != nil {
		return err
	}
	oracle.check(user.done, t)
	setBenchMetrics(r, user.phase)
	r.set("bench.peak_rss_mb", rss, 1)
	r.set("bench.trace_overhead", traced.opMS()/user.opMS()-1, traced.ops)
	r.set("bench.oracle_s", time.Since(oracleStart).Seconds(), 1)

	out.extra = append(out.extra, fmt.Sprintf("insert share of busy time %.3f (wal.commit_p50_ms × inserts ÷ summed op time %.3f)",
		insertShare(user), median(user.lat["insert"])*float64(len(user.lat["insert"]))/(user.busyMS[0]+user.busyMS[1]+user.busyMS[2])))
	return nil
}
