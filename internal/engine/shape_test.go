package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"oldelephant/internal/catalog"
	"oldelephant/internal/value"
)

// TestPointLookupsShareOneShape: point lookups that differ only in their key
// literal, however spelled, share one shape, one parse tree and one plan-cache
// entry; each handle keeps its own text, and every execution after the first
// leases the shared plan and answers its own key.
func TestPointLookupsShareOneShape(t *testing.T) {
	e := newCachedEngine(t, 0, 20000)
	var handles []*Prepared
	for i := 0; i < 200; i++ {
		text := fmt.Sprintf("SELECT grp, amount FROM items WHERE id = %d", i*97)
		if i%2 == 1 {
			text = fmt.Sprintf("select GRP, amount\n from ITEMS where %d = ID;", i*97)
		}
		p, err := e.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		if p.shape == nil || p.stmt != nil {
			t.Fatalf("%q: not parameterized", text)
		}
		handles = append(handles, p)
	}
	if handles[0].shape != handles[2].shape || handles[1].shape != handles[3].shape {
		t.Fatal("point lookups of one spelling hold different shapes")
	}
	before := e.PlanCacheStats()
	for i, p := range handles {
		res, err := e.QueryPrepared(QueryOptions{}, p)
		if err != nil {
			t.Fatal(err)
		}
		id := int64(i * 97)
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != id%7 || res.Rows[0][1].Float() != float64(id%100) {
			t.Fatalf("%q: rows %v", p.Text, res.Rows)
		}
		if want := i >= 2; res.Stats.PlanCached != want {
			t.Fatalf("execution %d: PlanCached = %v, want %v", i, res.Stats.PlanCached, want)
		}
	}
	s := e.PlanCacheStats()
	if s.Entries != 2 || s.Hits-before.Hits != 198 || s.Misses-before.Misses != 2 {
		t.Errorf("cache: %d entries, %d hits, %d misses; want 2 entries (one per spelling), 198 hits, 2 misses",
			s.Entries, s.Hits-before.Hits, s.Misses-before.Misses)
	}
	if n := e.shapes.live(); n != 2 {
		t.Errorf("engine holds %d shapes, want 2", n)
	}
	if n := e.PreparedStatements(); n != len(handles) {
		t.Errorf("engine holds %d prepared statements, want %d", n, len(handles))
	}
}

// TestPreparedStaysPerText: a prepared SELECT that is not a point lookup on
// a unique key keeps its own parse tree and plan-cache entry, and answers as
// the ad-hoc query does.
func TestPreparedStaysPerText(t *testing.T) {
	e := newCachedEngine(t, 0, 500)
	for _, c := range []struct {
		text  string
		shape bool
	}{
		{"SELECT amount FROM items WHERE id = 3", true},
		{"SELECT amount FROM items i WHERE i.id = 3", true},
		{"SELECT amount FROM items WHERE id > 3 AND id < 8", false},                 // a range on the key
		{"SELECT amount FROM items WHERE id >= 3 AND id <= 3", false},               // the same key as a range
		{"SELECT id FROM items WHERE grp = 3", false},                               // equality on a non-unique column
		{"SELECT amount FROM items WHERE id = 3.5", false},                          // a literal of another kind
		{"SELECT amount FROM items WHERE id = 3.0", false},                          // even an integral one
		{"SELECT amount FROM items WHERE id = NULL", false},                         // NULL
		{"SELECT amount FROM items WHERE id = 3 AND amount < 1000", false},          // a range beside the key
		{"SELECT amount FROM items WHERE id = 3 OR id = 4", false},                  // no top-level pin
		{"SELECT amount FROM items WHERE id = grp", false},                          // no literal
		{"SELECT amount FROM items x WHERE y.id = 3", false},                        // another table's column
		{"SELECT COUNT(*) FROM items a, items b WHERE a.id = 3", false},             // two tables
		{"SELECT amount FROM (SELECT id, amount FROM items) s WHERE id = 3", false}, // a derived table
	} {
		p, err := e.Prepare(c.text)
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		if (p.shape != nil) != c.shape || (p.stmt != nil) == c.shape {
			t.Errorf("%q: parameterized = %v, want %v", c.text, p.shape != nil, c.shape)
		}
		got, gerr := e.QueryPrepared(QueryOptions{}, p)
		want, werr := e.QueryWith(QueryOptions{NoCache: true}, c.text)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%q: prepared error %v, ad hoc %v", c.text, gerr, werr)
		}
		if gerr == nil && !slices.Equal(renderRows(got), renderRows(want)) {
			t.Errorf("%q: prepared %v, ad hoc %v", c.text, got.Rows, want.Rows)
		}
	}
}

// TestShapeAfterDDL: a handle prepared as a point lookup keeps answering as
// its text does after DDL takes its unique key away — the table dropped and
// made again without a key, or with the key of another kind — and shares
// its shape's plan again once a unique key of the slot's kind is back.
func TestShapeAfterDDL(t *testing.T) {
	e := New(Options{})
	execAll(t, e, "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))", "INSERT INTO t VALUES (5, 50), (6, 60)")
	const text = "SELECT v FROM t WHERE k = 5"
	p, err := e.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.shape == nil {
		t.Fatal("not parameterized")
	}
	check := func(stage string, perText bool) {
		t.Helper()
		for i := 0; i < 2; i++ {
			got, err := e.QueryPrepared(QueryOptions{}, p)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			want, err := e.QueryWith(QueryOptions{NoCache: true}, text)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if g, w := renderRows(got), renderRows(want); !slices.Equal(g, w) {
				t.Errorf("%s: prepared answers %v, the text %v", stage, g, w)
			}
		}
		if p.shape.perText != perText {
			t.Errorf("%s: perText = %v, want %v", stage, p.shape.perText, perText)
		}
	}
	check("keyed", false)
	execAll(t, e, "DROP TABLE t", "CREATE TABLE t (k INT, v INT)", "INSERT INTO t VALUES (5, 51), (5, 52), (7, 70)")
	check("keyless", true)
	execAll(t, e, "CREATE UNIQUE INDEX t_v ON t (v)")
	check("unique index off the key", true)
	execAll(t, e, "DROP TABLE t", "CREATE TABLE t (k VARCHAR(8), v INT, PRIMARY KEY (k))", "INSERT INTO t VALUES ('5', 53)")
	check("VARCHAR key", true)
	execAll(t, e, "DROP TABLE t", "CREATE TABLE t (k INT, v INT)", "CREATE UNIQUE INDEX t_k ON t (k)", "INSERT INTO t VALUES (5, 54)")
	check("unique index on the key", false)
	execAll(t, e, "DROP TABLE t")
	if _, err := e.QueryPrepared(QueryOptions{}, p); err == nil {
		t.Error("a lookup into a dropped table succeeded")
	}
}

// keyTable is one table of the key-literal differential: its DDL, its rows
// and point lookups into it.
type keyTable struct {
	ddl     []string
	name    string
	rows    [][]value.Value
	lookups []string
}

func keyTables() []keyTable {
	ints := keyTable{
		ddl:  []string{"CREATE TABLE ints (k BIGINT, v INT, PRIMARY KEY (k))"},
		name: "ints",
		rows: [][]value.Value{
			{value.NewInt(math.MinInt64), value.NewInt(-1)},
			{value.NewInt(math.MaxInt64), value.NewInt(1)},
			{value.NewInt(-5), value.NewInt(-50)},
		},
	}
	for k := 0; k < 20000; k++ {
		ints.rows = append(ints.rows, []value.Value{value.NewInt(int64(k * 3)), value.NewInt(int64(k))})
	}
	for _, k := range []string{"-9223372036854775808", "9223372036854775807", "-5", "0", "2997", "2998", "59997", "59998"} {
		ints.lookups = append(ints.lookups, "SELECT v, k FROM ints WHERE k = "+k)
	}
	dates := keyTable{
		ddl:     []string{"CREATE TABLE dates (d DATE, v INT, PRIMARY KEY (d))"},
		name:    "dates",
		lookups: []string{"SELECT v FROM dates WHERE d = DATE '1995-03-01'", "SELECT v FROM dates WHERE d = DATE '1990-01-01'"},
	}
	for i := 0; i < 400; i++ {
		dates.rows = append(dates.rows, []value.Value{value.NewDate(int64(9000 + i)), value.NewInt(int64(i))})
	}
	strs := keyTable{
		ddl:  []string{"CREATE TABLE strs (s VARCHAR(16), v INT, PRIMARY KEY (s))"},
		name: "strs",
		rows: [][]value.Value{{value.NewString(""), value.NewInt(0)}, {value.NewString("it's"), value.NewInt(1)}, {value.NewString("a"), value.NewInt(2)}},
		lookups: []string{
			"SELECT v FROM strs WHERE s = ''", "SELECT v FROM strs WHERE s = 'it''s'",
			"SELECT v FROM strs WHERE s = 'a'", "SELECT v FROM strs WHERE s = 'zz'",
		},
	}
	pairs := keyTable{
		ddl:  []string{"CREATE TABLE pairs (a INT, b VARCHAR(8), v INT, PRIMARY KEY (a, b))"},
		name: "pairs",
		lookups: []string{
			"SELECT v FROM pairs WHERE a = 3 AND b = 'x'", "SELECT v FROM pairs WHERE a = 4 AND b = ''",
			"SELECT v FROM pairs WHERE b = 'y' AND a = 3", "SELECT v FROM pairs WHERE 'x' = b AND a = 99",
		},
	}
	for a := 0; a < 50; a++ {
		for _, b := range []string{"", "x", "y"} {
			pairs.rows = append(pairs.rows, []value.Value{value.NewInt(int64(a)), value.NewString(b), value.NewInt(int64(a*10 + len(b)))})
		}
	}
	codes := keyTable{
		ddl:     []string{"CREATE TABLE codes (id INT, code VARCHAR(8), v INT)", "CREATE UNIQUE INDEX codes_code ON codes (code)"},
		name:    "codes",
		lookups: []string{"SELECT id, v FROM codes WHERE code = 'c17'", "SELECT id FROM codes WHERE code = 'none'"},
	}
	for i := 0; i < 300; i++ {
		codes.rows = append(codes.rows, []value.Value{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("c%d", i)), value.NewInt(int64(i * 2))})
	}
	return []keyTable{ints, dates, strs, pairs, codes}
}

func loadKeyTables(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	for _, kt := range keyTables() {
		execAll(t, e, kt.ddl[0])
		if err := e.BulkLoad(kt.name, kt.rows); err != nil {
			t.Fatal(err)
		}
		execAll(t, e, kt.ddl[1:]...)
	}
	return e
}

// TestKeyLiteralDifferential holds prepared point lookups, which share one
// shape per table and bind each handle's key into the leased plan, to the
// ad-hoc query on the same engine and on a fresh one, under both pull
// protocols and at one and two workers: the extremes of BIGINT, a negative
// and an absent key, a DATE key, VARCHAR keys with ” and a quote, a
// composite key in either order and a unique index on a keyless table.
func TestKeyLiteralDifferential(t *testing.T) {
	for _, opts := range []Options{{Parallelism: 1}, {Parallelism: 2}, {DisableVectorized: true}} {
		t.Run(fmt.Sprintf("row=%v/P=%d", opts.DisableVectorized, opts.Parallelism), func(t *testing.T) {
			e, fresh := loadKeyTables(t, opts), loadKeyTables(t, opts)
			var handles []*Prepared
			var texts []string
			for _, kt := range keyTables() {
				for _, text := range kt.lookups {
					p, err := e.Prepare(text)
					if err != nil {
						t.Fatal(err)
					}
					if p.shape == nil {
						t.Fatalf("%q: not parameterized", text)
					}
					handles = append(handles, p)
					texts = append(texts, text)
				}
			}
			// Twice over, so every handle also runs on a plan another key
			// compiled.
			for round := 0; round < 2; round++ {
				for i, p := range handles {
					got, err := e.QueryPrepared(QueryOptions{}, p)
					if err != nil {
						t.Fatalf("%q: %v", texts[i], err)
					}
					adhoc, err := e.Query(texts[i])
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.QueryWith(QueryOptions{NoCache: true}, texts[i])
					if err != nil {
						t.Fatal(err)
					}
					g, a, w := renderRows(got), renderRows(adhoc), renderRows(want)
					if !slices.Equal(g, w) || !slices.Equal(a, w) {
						t.Errorf("%q: prepared %v, ad hoc %v, fresh engine %v", texts[i], g, a, w)
					}
					if got.Plan != want.Plan {
						t.Errorf("%q: prepared plan %s, fresh engine's %s", texts[i], got.Plan, want.Plan)
					}
				}
			}
		})
	}
}

// TestSlotsBindSeekBounds: a shared plan's seek bounds and filter constants
// are the slots' values of the execution that leased it, for a clustered
// seek on a composite key and a seek of a unique index; the catalog's range
// encoding into the plan's own buffers keeps no key of an earlier lease.
func TestSlotsBindSeekBounds(t *testing.T) {
	e := New(Options{Parallelism: 1})
	execAll(t, e, "CREATE TABLE w (a INT, b INT, c VARCHAR(500), PRIMARY KEY (a, b))")
	var rows [][]value.Value
	pad := strings.Repeat("p", 400)
	for a := 0; a < 200; a++ {
		for b := 0; b < 20; b++ {
			rows = append(rows, []value.Value{value.NewInt(int64(a)), value.NewInt(int64(b)), value.NewString(fmt.Sprintf("%s%d.%d", pad, a, b))})
		}
	}
	if err := e.BulkLoad("w", rows, catalog.IndexDef{Name: "w_c", Columns: []string{"c"}, Unique: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		a, b := (i*37)%200, (i*7)%20
		for _, text := range []string{
			fmt.Sprintf("SELECT c FROM w WHERE a = %d AND b = %d", a, b),
			fmt.Sprintf("SELECT a, b FROM w WHERE c = '%s%d.%d'", pad, a, b),
		} {
			p, err := e.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.QueryPrepared(QueryOptions{}, p)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("[%s%d.%d]", pad, a, b)
			if strings.HasPrefix(text, "SELECT a") {
				want = fmt.Sprintf("[%d %d]", a, b)
			}
			if got := strings.Join(renderRows(res), ";"); got != want {
				t.Fatalf("%.60q…: %.80s, want %.80s (plan %s)", text, got, want, res.Plan)
			}
			if i > 0 && !res.Stats.PlanCached {
				t.Fatalf("%.60q…: missed the shared plan", text)
			}
			if !strings.Contains(res.Plan, "Seek(w") {
				t.Fatalf("%.60q…: plan %s, want a seek", text, res.Plan)
			}
		}
	}
}
