package bench

import (
	"fmt"
	"sync"
	"testing"

	"oldelephant/internal/engine"
	"oldelephant/internal/value"
)

// The scan-decode microbenchmarks: the same wide-table scan-filter-aggregate
// compared between a two-column projection and a query touching every column,
// plus a hash-join whose build side drains the wide table through a narrow
// projection. A 16-column lineitem-shaped table makes the decode tax visible:
// a row store that decodes all 16 fields to answer a 2-column aggregate pays
// an 8x decode overhead the projected path eliminates.
//
//	go test ./internal/bench -bench 'WideScan|JoinBuildWide'

const wideRows = 60000

// wideDDL is TPC-H lineitem widened to the full 16 columns (the benchmark
// schema the paper's scan-bound queries assume).
const wideDDL = `CREATE TABLE wide (
	l_orderkey BIGINT, l_partkey INT, l_suppkey INT, l_linenumber INT,
	l_quantity DOUBLE, l_extendedprice DOUBLE, l_discount DOUBLE, l_tax DOUBLE,
	l_returnflag VARCHAR(1), l_linestatus VARCHAR(1),
	l_shipdate DATE, l_commitdate DATE, l_receiptdate DATE, l_shipmode VARCHAR(10),
	l_shipinstruct VARCHAR(25), l_comment VARCHAR(44),
	PRIMARY KEY (l_orderkey, l_linenumber))`

var wideShipmodes = []string{"AIR", "RAIL", "TRUCK", "SHIP", "MAIL", "FOB", "REG AIR"}
var wideInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

// wideRow generates row i deterministically; dates cluster so the shipdate
// predicate selects roughly half the table.
func wideRow(i int) []value.Value {
	day := int64(9000 + i%730) // 1994-08..1996-08
	return []value.Value{
		value.NewInt(int64(i / 4)),
		value.NewInt(int64(i * 7 % 20000)),
		value.NewInt(int64(i % 100)),
		value.NewInt(int64(i % 4)),
		value.NewFloat(float64(1 + i%50)),
		value.NewFloat(float64(900 + i%100000)),
		value.NewFloat(float64(i%11) / 100),
		value.NewFloat(float64(i%9) / 100),
		value.NewString(string(rune('A' + i%3))),
		value.NewString(string(rune('F' + i%2))),
		value.NewDate(day),
		value.NewDate(day + 30),
		value.NewDate(day + 37),
		value.NewString(wideShipmodes[i%len(wideShipmodes)]),
		value.NewString(wideInstructs[i%len(wideInstructs)]),
		value.NewString(fmt.Sprintf("comment row %d carefully packed", i)),
	}
}

func newWideEngine(opts engine.Options) (*engine.Engine, error) {
	e := engine.New(opts)
	if _, err := e.Execute(wideDDL); err != nil {
		return nil, err
	}
	rows := make([][]value.Value, wideRows)
	for i := range rows {
		rows[i] = wideRow(i)
	}
	if err := e.BulkLoad("wide", rows); err != nil {
		return nil, err
	}
	return e, nil
}

var (
	wideOnce   sync.Once
	wideEng    *engine.Engine
	wideEngErr error
)

func wideEngine(b *testing.B) *engine.Engine {
	b.Helper()
	wideOnce.Do(func() { wideEng, wideEngErr = newWideEngine(engine.Options{}) })
	if wideEngErr != nil {
		b.Fatalf("wide engine: %v", wideEngErr)
	}
	return wideEng
}

// wideTwoColSQL touches 2 of the 16 columns: the paper's scan-filter-aggregate
// shape where decode, not the kernels, is the floor.
const wideTwoColSQL = "SELECT SUM(l_extendedprice) FROM wide WHERE l_shipdate < DATE '1995-08-01'"

// wideAllColSQL touches every column, so the projection covers the whole
// tuple and the scan decodes all 16 fields — the full-decode reference point.
const wideAllColSQL = "SELECT SUM(l_extendedprice), MIN(l_orderkey), MIN(l_partkey), MIN(l_suppkey), " +
	"MIN(l_linenumber), MIN(l_quantity), MIN(l_discount), MIN(l_tax), MIN(l_returnflag), " +
	"MIN(l_linestatus), MIN(l_commitdate), MIN(l_receiptdate), MIN(l_shipmode), " +
	"MIN(l_shipinstruct), MIN(l_comment) FROM wide WHERE l_shipdate < DATE '1995-08-01'"

func runWideQuery(b *testing.B, e *engine.Engine, sql string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("got %d rows, want 1", len(res.Rows))
		}
	}
	b.ReportMetric(float64(wideRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkWideScanProjected is the PR's headline number: a two-column
// scan-filter-aggregate over a 16-column table (projected decode) against the
// same scan forced to touch every column (full decode).
func BenchmarkWideScanProjected(b *testing.B) {
	e := wideEngine(b)
	b.Run("two_of_16", func(b *testing.B) { runWideQuery(b, e, wideTwoColSQL) })
	b.Run("all_16", func(b *testing.B) { runWideQuery(b, e, wideAllColSQL) })
}

// The string-heavy table: 8 of 9 columns are VARCHAR, split between
// low-cardinality columns (category/status/shipmode-like, where dictionary
// decode collapses per-value work to a code lookup) and high-cardinality ones
// (names/comments, where only an arena can amortize the per-value string
// allocation). It is the benchmark shape for the string decode floor.
const strRows = 40000

const strDDL = `CREATE TABLE strwide (
	s_key BIGINT,
	s_status VARCHAR(1), s_cat VARCHAR(8), s_region VARCHAR(12), s_tag VARCHAR(10),
	s_name VARCHAR(24), s_note VARCHAR(44), s_desc VARCHAR(32), s_alt VARCHAR(16),
	PRIMARY KEY (s_key))`

var strCats = []string{"ALPHA", "BETA", "GAMMA", "DELTA", "EPSILON"}
var strRegions = []string{"AMERICA", "EUROPE", "ASIA", "AFRICA", "MIDDLE EAST", "OCEANIA"}
var strTags = []string{"HOT", "COLD", "WARM", "FROZEN", "MILD", "DRY", "WET", "DAMP"}

func strRow(i int) []value.Value {
	return []value.Value{
		value.NewInt(int64(i)),
		value.NewString(string(rune('A' + i%4))),
		value.NewString(strCats[i%len(strCats)]),
		value.NewString(strRegions[i%len(strRegions)]),
		value.NewString(strTags[i%len(strTags)]),
		value.NewString(fmt.Sprintf("name-%d-%d", i%977, i)),
		value.NewString(fmt.Sprintf("note row %d padded with detail %d", i, i*31%1000)),
		value.NewString(fmt.Sprintf("description %d block %d", i*7%10000, i%64)),
		value.NewString(fmt.Sprintf("alt-%d", i*13%100000)),
	}
}

var (
	strOnce   sync.Once
	strEng    *engine.Engine
	strEngErr error
)

func strEngine(b *testing.B) *engine.Engine {
	b.Helper()
	strOnce.Do(func() {
		opts := engine.Options{}
		e := engine.New(opts)
		if _, strEngErr = e.Execute(strDDL); strEngErr != nil {
			return
		}
		rows := make([][]value.Value, strRows)
		for i := range rows {
			rows[i] = strRow(i)
		}
		if strEngErr = e.BulkLoad("strwide", rows); strEngErr == nil {
			strEng = e
		}
	})
	if strEngErr != nil {
		b.Fatalf("string engine: %v", strEngErr)
	}
	return strEng
}

// strProjectedSQL touches 3 of the 8 string columns — one low-cardinality
// (dict decode) and two high-cardinality (arena decode).
const strProjectedSQL = "SELECT COUNT(*), MIN(s_name), MAX(s_note) FROM strwide WHERE s_status = 'A'"

// strFullSQL touches every column: the full string-decode reference point.
const strFullSQL = "SELECT COUNT(*), MIN(s_status), MAX(s_cat), MIN(s_region), MAX(s_tag), " +
	"MIN(s_name), MAX(s_note), MIN(s_desc), MAX(s_alt) FROM strwide WHERE s_key >= 0"

// BenchmarkStringScan measures the string decode floor: a projected scan
// touching 3 of 8 varchar columns and a full scan touching all of them, over
// a table where nearly every byte decoded is string data.
func BenchmarkStringScan(b *testing.B) {
	e := strEngine(b)
	run := func(b *testing.B, sql string) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Query(sql)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("got %d rows, want 1", len(res.Rows))
			}
		}
		b.ReportMetric(float64(strRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
	b.Run("projected_3_of_9", func(b *testing.B) { run(b, strProjectedSQL) })
	b.Run("full_9", func(b *testing.B) { run(b, strFullSQL) })
}

// BenchmarkJoinBuildWideProjected drains the wide table as a hash-join build
// side that needs only the key and one payload column — the join-build decode
// path. The probe side is tiny, so the build drain dominates.
func BenchmarkJoinBuildWideProjected(b *testing.B) {
	e := wideEngine(b)
	if !e.Catalog().HasTable("odays") {
		if _, err := e.Execute("CREATE TABLE odays (d_key INT, d_grp INT, PRIMARY KEY (d_key))"); err != nil {
			b.Fatal(err)
		}
		dims := make([][]value.Value, 16)
		for i := range dims {
			dims[i] = []value.Value{value.NewInt(int64(i * 1000)), value.NewInt(int64(i % 4))}
		}
		if err := e.BulkLoad("odays", dims); err != nil {
			b.Fatal(err)
		}
	}
	sql := "SELECT d_grp, SUM(l_extendedprice) FROM odays, wide " +
		"WHERE d_key = l_orderkey GROUP BY d_grp OPTION(HASH JOIN)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wideRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
