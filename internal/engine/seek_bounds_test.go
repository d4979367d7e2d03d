package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"oldelephant/internal/value"
)

// seekBoundRows is the 20,000-row data set of TestSeekBoundsAcrossKindsParallel:
// (ki INT, kf FLOAT, kd DATE, ks VARCHAR, id INT, pad VARCHAR), one column per
// key kind, each cycling through the values where a stored key changes length
// class or a float64 stops telling integers apart, NULLs, strings with 0x00,
// and seeded random filler, duplicates included.
func seekBoundRows() [][]value.Value {
	ints := []int64{0, 1, -1, 3, 4, -3, -4, 255, 256, -256, -257, 65535, 65536,
		1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53), -(1<<53 + 1), -(1<<53 + 2),
		math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 511, math.MaxInt64 - 512, math.MinInt64, math.MinInt64 + 1}
	floats := []float64{0, 0.5, -0.5, 3, 3.5, 4, -3.5, 1 << 53, 1<<53 + 2, -(1 << 53), 1 << 63, -(1 << 63),
		1e20, -1e20, math.Inf(1), math.Inf(-1), math.MaxInt64 - 1023}
	strs := []string{"", "a", "a\x00", "a\x00b", "b", "3", "1995-03-05", "\x00"}
	rng := rand.New(rand.NewSource(19))
	rows := make([][]value.Value, 20000)
	for i := range rows {
		ki, kf, kd, ks := value.Null(), value.Null(), value.Null(), value.Null()
		switch c := i % 40; {
		case c < len(ints):
			ki = value.NewInt(ints[c])
		case c < 39:
			ki = value.NewInt(rng.Int63n(1001) - 500)
		}
		switch c := (i / 3) % 30; {
		case c < len(floats):
			kf = value.NewFloat(floats[c])
		case c < 29:
			kf = value.NewFloat(float64(rng.Int63n(2001)-1000) / 2)
		}
		if c := (i / 7) % 25; c < 24 {
			kd = value.NewDate(9100 + int64(c)*3 - 300*int64(c%2))
		}
		switch c := (i / 11) % 20; {
		case c < len(strs):
			ks = value.NewString(strs[c])
		case c < 19:
			ks = value.NewString(fmt.Sprintf("s%03d", rng.Intn(300)))
		}
		rows[i] = []value.Value{ki, kf, kd, ks, value.NewInt(int64(i)), value.NewString("p")}
	}
	return rows
}

// rowsDigest fingerprints a result as a multiset of rows — kinds included, so
// 3 and 3.0 differ — without the cost of rendering tens of thousands of them:
// the sum of each row's FNV-1a hash.
func rowsDigest(res *Result) string {
	var sum uint64
	for _, row := range res.Rows {
		h := uint64(14695981039346656037)
		mix := func(u uint64, n int) {
			for ; n > 0; n-- {
				h = (h ^ u&0xFF) * 1099511628211
				u >>= 8
			}
		}
		for _, v := range row {
			mix(uint64(v.Kind), 1)
			mix(uint64(v.I), 8)
			mix(math.Float64bits(v.F), 8)
			mix(uint64(len(v.S)), 8)
			for i := 0; i < len(v.S); i++ {
				mix(uint64(v.S[i]), 1)
			}
		}
		sum += h
	}
	return fmt.Sprintf("%d rows, digest %016x", len(res.Rows), sum)
}

// TestSeekBoundsAcrossKindsParallel holds every seek to the answer of a scan.
// Stored keys order by bytes only within a column's declared kind, so a bound
// of another kind — `ki > 3.5`, a FLOAT outer column probing an INT key, a
// string against a number — is restated in the column's kind before the seek
// (catalog.Range, value.CoerceKeyBound). Here each of an INT, FLOAT, DATE and
// VARCHAR column is probed with every comparison operator and BETWEEN, bounds
// of every kind (fractional and integral floats, floats at and beyond ±2^63,
// integers no float64 holds, strings, NULL, dates, booleans), through a
// ClusteredSeek, a covered and an uncovered IndexSeek, and an index
// nested-loop join whose outer table supplies the bounds; every answer must
// equal the same predicate over a heap copy of the rows, which can only be
// scanned. Both pull protocols, serial and Parallelism 2. The plan strings
// prove the seeks ran: the joins always, the single-table forms for every
// kind of bound the planner's cost model sends down them.
func TestSeekBoundsAcrossKindsParallel(t *testing.T) {
	rows := seekBoundRows()
	const cols = "(ki INT, kf FLOAT, kd DATE, ks VARCHAR, id INT, pad VARCHAR"
	ddl := []string{
		"CREATE TABLE h " + cols + ")", // a heap: the scan every answer is held to
		"CREATE TABLE ti " + cols + ", PRIMARY KEY (ki))",
		"CREATE TABLE tf " + cols + ", PRIMARY KEY (kf))",
		"CREATE TABLE td " + cols + ", PRIMARY KEY (kd))",
		"CREATE TABLE ts " + cols + ", PRIMARY KEY (ks))",
		"CREATE INDEX ix_kf ON ti (kf) INCLUDE (id)",
		"CREATE INDEX ix_kd ON ti (kd) INCLUDE (id)",
		"CREATE INDEX ix_ks ON ti (ks) INCLUDE (id)",
		"CREATE INDEX ix_ki ON tf (ki) INCLUDE (id)",
		// The outer tables of the joins: bounds of one kind each, two per row.
		"CREATE TABLE bi (bid INT, v INT, w INT)",
		"CREATE TABLE bf (bid INT, v FLOAT, w FLOAT)",
		"CREATE TABLE bs (bid INT, v VARCHAR, w VARCHAR)",
		"CREATE TABLE bd (bid INT, v DATE, w DATE)",
	}
	pairs := func(vals ...value.Value) [][]value.Value {
		out := make([][]value.Value, len(vals)/2)
		for i := range out {
			out[i] = []value.Value{value.NewInt(int64(i)), vals[2*i], vals[2*i+1]}
		}
		return out
	}
	I, F, S, D := value.NewInt, value.NewFloat, value.NewString, value.NewDate
	outers := map[string][][]value.Value{
		"bi": pairs(I(3), I(300), I(-4), I(4), I(1<<53+1), I(math.MaxInt64), I(math.MinInt64), I(-(1<<53 + 1)), value.Null(), I(5), I(9103), I(9130)),
		"bf": pairs(F(3.5), F(300.5), F(-3.5), F(4), F(1<<53), F(1<<63), F(-1e20), F(-(1 << 53)), F(math.Inf(-1)), F(0.5), F(9102.5), F(1e20), value.Null(), F(1)),
		"bs": pairs(S(""), S("a\x00"), S("a"), S("b"), S("1995-03-05"), S("s150"), value.Null(), S("z")),
		"bd": pairs(D(9103), D(9130), D(-5), D(400), value.Null(), D(9000)),
	}

	// One literal per kind of bound, as SQL spells it.
	literals := []struct{ label, sql string }{
		{"int", "3"}, {"int beyond 2^53", "9007199254740993"}, {"int at the edge", "-9223372036854775807"},
		{"fractional float", "3.5"}, {"fractional float", "9102.5"},
		{"integral float", "4.0"}, {"integral float", "-9007199254740992.0"},
		{"float at 2^63", "9223372036854775808.0"}, {"float beyond int64", "-100000000000000000000.0"},
		{"string", "'a'"}, {"string", "'1995-03-05'"}, {"date", "DATE '1994-12-01'"}, {"bool", "TRUE"}, {"null", "NULL"},
	}
	var preds []struct{ label, sql string }
	for _, l := range literals {
		for _, op := range []string{"=", "<", "<=", ">", ">="} {
			preds = append(preds, struct{ label, sql string }{l.label, "%s " + op + " " + l.sql})
		}
	}
	for _, b := range [][3]string{
		{"fractional float", "-3.5", "3.5"}, {"fractional float", "2.5", "300"}, {"fractional float", "9100.5", "9130.5"},
		{"integral float", "9007199254740992.0", "9007199254740993"}, {"float at 2^63", "9223372036854775000", "9223372036854775808.0"},
		{"float beyond int64", "-100000000000000000000.0", "-9007199254740992.0"},
		{"string", "'a'", "'a~'"}, {"string", "3", "'a'"}, {"string", "''", "4.5"}, {"null", "NULL", "3.5"},
		{"date", "DATE '1994-12-01'", "'1995-03-05'"}, {"int", "9103", "9130"},
	} {
		preds = append(preds, struct{ label, sql string }{b[0], "%s BETWEEN " + b[1] + " AND " + b[2]})
	}

	// Where each key column has its clustered tree and its secondary index.
	type home struct{ col, clustered, indexed, index string }
	homes := []home{{"ki", "ti", "tf", "ix_ki"}, {"kf", "tf", "ti", "ix_kf"}, {"kd", "td", "ti", "ix_kd"}, {"ks", "ts", "ti", "ix_ks"}}

	type query struct {
		label, path, sql, ref, plan string
	}
	var queries []query
	for h, hm := range homes {
		for _, p := range preds {
			where := " WHERE " + fmt.Sprintf(p.sql, hm.col)
			ref := "SELECT " + hm.col + ", id FROM h" + where
			queries = append(queries,
				query{p.label, "ClusteredSeek", "SELECT " + hm.col + ", id FROM " + hm.clustered + where, ref,
					"ClusteredSeek(" + hm.clustered + " on " + hm.col + ")"},
				query{p.label, "IndexSeek covering", "SELECT " + hm.col + ", id FROM " + hm.indexed + where, ref,
					"IndexSeek(" + hm.indexed + "." + hm.index + " covering)"})
			// The planner looks base rows up only for a bound that selects next
			// to nothing: an equality or a window.
			if strings.Contains(p.sql, " = ") || strings.Contains(p.sql, "BETWEEN") {
				queries = append(queries, query{p.label, "IndexSeek + lookup", "SELECT " + hm.col + ", pad FROM " + hm.indexed + where,
					"SELECT " + hm.col + ", pad FROM h" + where, "IndexSeek(" + hm.indexed + "." + hm.index + " + lookup)"})
			}
		}
		// Each outer kind probes the column's clustered tree or its index, in turn.
		for o, outer := range []string{"bi", "bf", "bs", "bd"} {
			tbl, via := hm.clustered, "clustered"
			if (h+o)%2 == 1 {
				tbl, via = hm.indexed, hm.index
			}
			for _, cond := range []string{"t.%s = b.v", "t.%s < b.v", "t.%s > b.v", "b.w <= t.%s", "t.%s BETWEEN b.v AND b.w"} {
				const sel = "SELECT b.bid, COUNT(*), SUM(t.id), MIN(t.id) FROM %s b, %s t WHERE " + "%s GROUP BY b.bid OPTION(LOOP JOIN)"
				on := fmt.Sprintf(cond, hm.col)
				queries = append(queries, query{"outer " + outer, "IndexNLJoin via " + via[:2],
					fmt.Sprintf(sel, outer, tbl, on), fmt.Sprintf(sel, outer, "h", on),
					", " + tbl + " via " + via + ")"})
			}
		}
	}

	// The scan answers are computed once, by the first engine. (The row engine
	// never parallelizes, so it runs serial only.)
	refs := make(map[string]string)
	seen := make(map[string]map[string]int) // path -> bound label -> seeks
	for _, cfg := range []struct {
		row     bool
		workers int
	}{{false, 1}, {true, 1}, {false, 2}} {
		name := fmt.Sprintf("row=%v/P=%d", cfg.row, cfg.workers)
		e := New(Options{DisableVectorized: cfg.row, Parallelism: cfg.workers})
		for _, s := range ddl {
			if _, err := e.Execute(s); err != nil {
				t.Fatalf("%s: %s: %v", name, s, err)
			}
		}
		for _, tbl := range []string{"h", "ti", "tf", "td", "ts"} {
			if err := e.BulkLoad(tbl, rows); err != nil {
				t.Fatalf("%s: load %s: %v", name, tbl, err)
			}
		}
		for tbl, rows := range outers {
			if err := e.BulkLoad(tbl, rows); err != nil {
				t.Fatalf("%s: load %s: %v", name, tbl, err)
			}
		}
		for _, q := range queries {
			want, ok := refs[q.ref]
			if !ok {
				res, err := e.Query(q.ref)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, q.ref, err)
				}
				if strings.Contains(res.Plan, "Seek") || strings.Contains(res.Plan, "IndexNLJoin") {
					t.Fatalf("%s: the reference %s ran %s, not a scan", name, q.ref, res.Plan)
				}
				want = rowsDigest(res)
				refs[q.ref] = want
			}
			res, err := e.Query(q.sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q.sql, err)
			}
			if got := rowsDigest(res); got != want {
				t.Errorf("%s: %s\nplan %s\nreturned %s, the scan %s", name, q.sql, res.Plan, got, want)
			}
			if strings.Contains(res.Plan, q.plan) {
				if seen[q.path] == nil {
					seen[q.path] = make(map[string]int)
				}
				seen[q.path][q.label]++
			} else if strings.HasPrefix(q.path, "IndexNLJoin") {
				t.Errorf("%s: %s ran %s, want an index nested-loop join %q", name, q.sql, res.Plan, q.plan)
			}
		}
	}
	// Every kind of bound went down every seek form (the planner prefers the
	// scan where its estimate says a bound selects everything, and an
	// uncovered seek only where it selects next to nothing).
	for path, labels := range map[string][]string{
		"ClusteredSeek": {"int", "int beyond 2^53", "int at the edge", "fractional float", "integral float",
			"float at 2^63", "float beyond int64", "string", "date", "bool"},
		"IndexSeek covering": {"int", "int beyond 2^53", "int at the edge", "fractional float", "integral float",
			"float at 2^63", "float beyond int64", "string", "date", "bool"},
		"IndexSeek + lookup": {"int", "fractional float", "integral float", "string", "date"},
		"IndexNLJoin via cl": {"outer bi", "outer bf", "outer bs", "outer bd"},
		"IndexNLJoin via ix": {"outer bi", "outer bf", "outer bs", "outer bd"},
	} {
		for _, label := range labels {
			if seen[path][label] == 0 {
				t.Errorf("no %s ran with a bound of kind %q: %v", path, label, seen[path])
			}
		}
	}
}

// TestSeekBoundsIgnoreConjunctOrder: two upper bounds on the clustered key
// seek to the tighter one in either order, so a cold run reads what the
// tighter bound alone reads; the looser one stays in the residual filter.
func TestSeekBoundsIgnoreConjunctOrder(t *testing.T) {
	e := New(Options{BufferPoolPages: 64, Parallelism: 1})
	t.Cleanup(func() { e.Close() })
	if _, err := e.Execute("CREATE TABLE items (id INT, grp INT, amount FLOAT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 20000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 7)), value.NewFloat(float64(i % 100))}
	}
	if err := e.BulkLoad("items", rows); err != nil {
		t.Fatal(err)
	}
	cold := func(where string) *Result {
		t.Helper()
		e.ResetBufferPool()
		res, err := e.QueryWith(QueryOptions{NoCache: true}, "SELECT id, amount FROM items WHERE "+where)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 500 {
			t.Fatalf("%s: %d rows, want 500", where, len(res.Rows))
		}
		return res
	}
	want := cold("id < 500").Stats.IO.PageReads
	for _, where := range []string{"id < 500 AND id < 19000", "id < 19000 AND id < 500", "19000 > id AND 500 > id"} {
		res := cold(where)
		if got := res.Stats.IO.PageReads; got != want {
			t.Errorf("%s: read %d pages, id < 500 reads %d\n%s", where, got, want, res.Plan)
		}
		if !strings.Contains(res.Plan, "Filter(ClusteredSeek(items on id))") {
			t.Errorf("%s: plan %s, want a residual filter over the clustered seek", where, res.Plan)
		}
	}
}
