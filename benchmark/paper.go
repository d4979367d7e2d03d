package main

import (
	"fmt"
	"math/rand"
	"time"

	elephant "oldelephant"
	"oldelephant/internal/value"
)

// The paper's constants, copied here so the benchmark depends on the
// program's public entry points only: the seven Figure-1 queries, the
// generalized materialized views of Section 2.1 and the c-table designs
// D1, D2 and D4 of Section 2.2.

// class splits a workload's statements into the two latency classes the
// end-to-end metrics report.
type class int

const (
	selective class = iota // selectivity 0.01 and 0.1, Q2, Q5; the point seek
	bulk                   // selectivity 0.5 and 1.0, Q7; the range scan
)

type queryDef struct {
	id     string
	format string // one %s: the date literal (none for Q7)
	column string // the swept or matched date column; "" for Q7
	swept  bool
	design string
	cols   []string // columns a column store must read (the ColOpt bound)
}

var figure1 = []queryDef{
	{"Q1", "SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '%s' GROUP BY l_shipdate",
		"l_shipdate", true, "D1", []string{"l_shipdate"}},
	{"Q2", "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = DATE '%s' GROUP BY l_suppkey",
		"l_shipdate", false, "D1", []string{"l_shipdate", "l_suppkey"}},
	{"Q3", "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > DATE '%s' GROUP BY l_suppkey",
		"l_shipdate", true, "D1", []string{"l_shipdate", "l_suppkey"}},
	{"Q4", "SELECT o_orderdate, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '%s' GROUP BY o_orderdate",
		"o_orderdate", true, "D2", []string{"o_orderdate", "l_shipdate"}},
	{"Q5", "SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate = DATE '%s' GROUP BY l_suppkey",
		"o_orderdate", false, "D2", []string{"o_orderdate", "l_suppkey", "l_shipdate"}},
	{"Q6", "SELECT l_suppkey, MAX(l_shipdate) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '%s' GROUP BY l_suppkey",
		"o_orderdate", true, "D2", []string{"o_orderdate", "l_suppkey", "l_shipdate"}},
	{"Q7", "SELECT c_nationkey, SUM(l_extendedprice) FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND l_returnflag = 'R' GROUP BY c_nationkey",
		"", false, "D4", []string{"l_returnflag", "c_nationkey", "l_extendedprice"}},
}

var selectivities = []float64{0.01, 0.1, 0.5, 1.0}

type viewDef struct{ name, sql string }

// Created in this order so the page layout, and with it the modeled disk
// cost, is the same on every run.
var paperViews = []viewDef{
	{"mv23", "SELECT l_shipdate, l_suppkey, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipdate, l_suppkey"},
	{"mv4", "SELECT o_orderdate, MAX(l_shipdate) AS maxship, COUNT(*) AS cnt FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderdate"},
	{"mv456", "SELECT o_orderdate, l_suppkey, MAX(l_shipdate) AS maxship, COUNT(*) AS cnt FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderdate, l_suppkey"},
	{"mv7", "SELECT c_nationkey, l_returnflag, SUM(l_extendedprice) AS revenue FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey GROUP BY l_returnflag, c_nationkey"},
}

type designDef struct {
	name     string
	sql      string
	columns  []string
	kinds    []value.Kind
	sortCols []string
}

var paperDesigns = []designDef{
	{"D1", "SELECT l_shipdate, l_suppkey FROM lineitem",
		[]string{"l_shipdate", "l_suppkey"},
		[]value.Kind{value.KindDate, value.KindInt},
		[]string{"l_shipdate", "l_suppkey"}},
	{"D2", "SELECT o_orderdate, l_suppkey, l_shipdate FROM lineitem, orders WHERE l_orderkey = o_orderkey",
		[]string{"o_orderdate", "l_suppkey", "l_shipdate"},
		[]value.Kind{value.KindDate, value.KindInt, value.KindDate},
		[]string{"o_orderdate", "l_suppkey"}},
	{"D4", "SELECT l_returnflag, c_nationkey, l_extendedprice FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey",
		[]string{"l_returnflag", "c_nationkey", "l_extendedprice"},
		[]value.Kind{value.KindString, value.KindInt, value.KindFloat},
		[]string{"l_returnflag"}},
}

// The paper's disk model: a 7200 RPM drive reads an 8 KB page sequentially
// in about 0.1 ms and pays about 8 ms for a random access, so a random read
// costs as much as randomReadCost sequential ones. Costs are kept in
// sequential-page equivalents; a tenth of one is the paper's millisecond.
const randomReadCost = 80

// statement is one of the 19 distinct statements of a paper_* pass.
type statement struct {
	name  string // "Q1@0.01", "Q2"
	query *queryDef
	sel   float64 // 0 for the fixed-parameter queries
	class class
	param elephant.Value // the date literal; NULL for Q7
	sql   string         // the base-table text the program is given
}

// dateRanges are read from the loaded data once per build.
type dateRanges struct {
	shipMin, shipMax, orderMin, orderMax int64 // days since epoch
	q2Date, q5Date                       int64 // existing dates nearest the middle
}

func readDateRanges(db *elephant.DB) (dateRanges, error) {
	var r dateRanges
	res, err := db.Query("SELECT MIN(l_shipdate), MAX(l_shipdate) FROM lineitem")
	if err != nil {
		return r, err
	}
	r.shipMin, r.shipMax = res.Rows[0][0].I, res.Rows[0][1].I
	res, err = db.Query("SELECT MIN(o_orderdate), MAX(o_orderdate) FROM orders")
	if err != nil {
		return r, err
	}
	r.orderMin, r.orderMax = res.Rows[0][0].I, res.Rows[0][1].I
	// Equality parameters must hit a date that exists, or the query selects
	// nothing at a small scale.
	existing := func(table, column string, target int64) (int64, error) {
		res, err := db.Query(fmt.Sprintf("SELECT MAX(%s) FROM %s WHERE %s <= DATE '%s'",
			column, table, column, dateText(target)))
		if err != nil {
			return 0, err
		}
		if len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
			return target, nil
		}
		return res.Rows[0][0].I, nil
	}
	if r.q2Date, err = existing("lineitem", "l_shipdate", (r.shipMin+r.shipMax)/2); err != nil {
		return r, err
	}
	r.q5Date, err = existing("orders", "o_orderdate", (r.orderMin+r.orderMax)/2)
	return r, err
}

func dateText(days int64) string {
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
}

// statements renders the 19 statements for a seed. Each swept date literal is
// moved by 0 to 6 days, so an unseen seed is a different literal set; within a
// run the set is fixed. The fixed-parameter queries keep their literal.
func statements(r dateRanges, seed int64) []statement {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var out []statement
	for i := range figure1 {
		q := &figure1[i]
		switch {
		case q.swept:
			lo, hi := r.shipMin, r.shipMax
			if q.column == "o_orderdate" {
				lo, hi = r.orderMin, r.orderMax
			}
			for _, sel := range selectivities {
				jitter := int64(rng.Intn(7))
				d := lo - 1 - jitter // selects every row
				if sel < 1 {
					d = lo + int64(float64(hi-lo)*(1-sel)) - 3 + jitter
				}
				c := selective
				if sel >= 0.5 {
					c = bulk
				}
				out = append(out, statement{
					name: fmt.Sprintf("%s@%g", q.id, sel), query: q, sel: sel, class: c,
					param: value.NewDate(d), sql: fmt.Sprintf(q.format, dateText(d)),
				})
			}
		case q.column != "":
			d := r.q2Date
			if q.column == "o_orderdate" {
				d = r.q5Date
			}
			out = append(out, statement{name: q.id, query: q, class: selective,
				param: value.NewDate(d), sql: fmt.Sprintf(q.format, dateText(d))})
		default:
			out = append(out, statement{name: q.id, query: q, class: bulk, sql: q.format})
		}
	}
	return out
}

// classMembers lists the statement names of one class.
func classMembers(stmts []statement, c class) []string {
	var out []string
	for _, s := range stmts {
		if s.class == c {
			out = append(out, s.name)
		}
	}
	return out
}
