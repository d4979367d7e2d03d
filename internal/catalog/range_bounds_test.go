package catalog

import (
	"fmt"
	"math"
	"testing"

	"oldelephant/internal/value"
)

// TestRangeBoundsMatchCompare holds Table.Range and Index.Range to their
// contract with nothing above them to paper over a loose bound: the cursor
// yields exactly the records whose key prefix value.Compare puts inside
// [lo, hi], whatever kinds the bound values have — one- and two-column
// prefixes over an (INT, VARCHAR) clustered key and a (FLOAT, DATE) index, all
// four inclusivity combinations, NULL keys, duplicate keys. When a value
// before the last of a prefix has no single counterpart of its column's kind
// (a fractional float on the INT column, a string on a number) the range may
// be a superset, never a subset; everywhere else it is exact. A range a bound
// rules out reads no page.
func TestRangeBoundsMatchCompare(t *testing.T) {
	c := newTestCatalog()
	tb, err := c.CreateTable("t", []Column{
		{Name: "a", Kind: value.KindInt}, {Name: "s", Kind: value.KindString},
		{Name: "f", Kind: value.KindFloat}, {Name: "d", Kind: value.KindDate}, {Name: "id", Kind: value.KindInt},
	}, []string{"a", "s"})
	if err != nil {
		t.Fatal(err)
	}
	as := []value.Value{value.Null(), value.NewInt(-257), value.NewInt(0), value.NewInt(3), value.NewInt(4),
		value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64)}
	ss := []value.Value{value.Null(), value.NewString(""), value.NewString("a"), value.NewString("a\x00"), value.NewString("b")}
	fs := []value.Value{value.Null(), value.NewFloat(-1e20), value.NewFloat(-0.5), value.NewFloat(3), value.NewFloat(3.5),
		value.NewFloat(1 << 53), value.NewFloat(math.Inf(1))}
	ds := []value.Value{value.Null(), value.NewDate(-3), value.NewDate(3), value.NewDate(9100)}
	var rows [][]value.Value
	for i, a := range as {
		for j, s := range ss {
			for dup := 0; dup < 1+(i+j)%2; dup++ {
				n := len(rows)
				rows = append(rows, []value.Value{a, s, fs[n%len(fs)], ds[(n/len(fs))%len(ds)], value.NewInt(int64(n))})
			}
		}
	}
	if err := tb.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	ix, err := c.CreateIndex("ix_fd", "t", []string{"f", "d"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}

	bounds := []value.Value{value.Null(), value.NewInt(3), value.NewInt(-300), value.NewInt(1<<53 + 1), value.NewInt(math.MaxInt64),
		value.NewFloat(3), value.NewFloat(3.5), value.NewFloat(-0.5), value.NewFloat(1 << 53), value.NewFloat(1 << 63),
		value.NewFloat(-1e20), value.NewFloat(math.Inf(-1)), value.NewString(""), value.NewString("a"), value.NewString("a\x00"),
		value.NewDate(3), value.NewBool(false)}
	var prefixes [][]value.Value
	for _, b := range bounds {
		prefixes = append(prefixes, []value.Value{b})
		for _, b2 := range bounds {
			prefixes = append(prefixes, []value.Value{b, b2})
		}
	}
	// cmpPrefix orders a record's key columns against a bound prefix.
	cmpPrefix := func(row []value.Value, ords []int, prefix []value.Value) int {
		for i, b := range prefix {
			if c := value.Compare(row[ords[i]], b); c != 0 {
				return c
			}
		}
		return 0
	}
	sameFamily := func(b value.Value, k value.Kind) bool {
		intLike := func(k value.Kind) bool { return k == value.KindInt || k == value.KindDate || k == value.KindBool }
		return b.IsNull() || b.Kind == k || intLike(b.Kind) && intLike(k)
	}
	pager := c.Pager()
	for _, path := range []struct {
		name string
		ords []int
		open func(lo, hi []value.Value, loIncl, hiIncl bool) Range
	}{
		{"clustered", []int{0, 1}, func(lo, hi []value.Value, li, hi2 bool) Range { r, _ := tb.Range(lo, hi, li, hi2); return r }},
		{"index", []int{2, 3}, ix.Range},
	} {
		kinds := []value.Kind{tb.Columns[path.ords[0]].Kind, tb.Columns[path.ords[1]].Kind}
		idAt := len(tb.Columns) - 1
		if path.name == "index" {
			idAt = -1 // entries hold f, d, a, s: identify rows by all four
		}
		for _, lo := range append([][]value.Value{nil}, prefixes...) {
			for _, hi := range append([][]value.Value{nil}, prefixes...) {
				if lo != nil && hi != nil && len(lo)+len(hi) == 4 && (lo[0] != hi[0]) {
					continue // two-column windows: same leading value only, to bound the matrix
				}
				for form := 0; form < 4; form++ {
					loIncl, hiIncl := form&1 != 0, form&2 != 0
					exact := true
					for _, p := range [][]value.Value{lo, hi} {
						if len(p) == 2 && !sameFamily(p[0], kinds[0]) {
							exact = false
						}
					}
					want := map[string]int{}
					for _, row := range rows {
						in := true
						if lo != nil {
							c := cmpPrefix(row, path.ords, lo)
							in = in && (c > 0 || c == 0 && loIncl)
						}
						if hi != nil {
							c := cmpPrefix(row, path.ords, hi)
							in = in && (c < 0 || c == 0 && hiIncl)
						}
						if in {
							want[fmt.Sprint(row[0], row[1], row[2], row[3])]++
						}
					}
					before := pager.Stats()
					rng := path.open(lo, hi, loIncl, hiIncl)
					cur := rng.Open()
					got := map[string]int{}
					for {
						rec, ok, err := cur.Next()
						if err != nil {
							t.Fatalf("%s [%v, %v]: %v", path.name, lo, hi, err)
						}
						if !ok {
							break
						}
						if idAt >= 0 {
							got[fmt.Sprint(rec[0], rec[1], rec[2], rec[3])]++
						} else {
							got[fmt.Sprint(rec[2], rec[3], rec[0], rec[1])]++
						}
					}
					for k, n := range want {
						if got[k] < n {
							t.Fatalf("%s range lo=%v(incl %v) hi=%v(incl %v) misses %d of row %s", path.name, lo, loIncl, hi, hiIncl, n-got[k], k)
						}
					}
					if exact {
						for k, n := range got {
							if want[k] != n {
								t.Fatalf("%s range lo=%v(incl %v) hi=%v(incl %v) returns row %s %d times, Compare says %d",
									path.name, lo, loIncl, hi, hiIncl, k, n, want[k])
							}
						}
					}
					if rng.empty {
						if reads := pager.Stats().Sub(before).PageReads; reads != 0 || len(got) != 0 {
							t.Fatalf("%s: empty range lo=%v hi=%v read %d pages, %d rows", path.name, lo, hi, reads, len(got))
						}
						if rng.EstRows() != 0 || rng.Split(10) != nil {
							t.Fatalf("%s: empty range lo=%v hi=%v estimates %d rows", path.name, lo, hi, rng.EstRows())
						}
					}
				}
			}
		}
	}
	lo := []value.Value{value.NewInt(3)}
	if r := tb.Clustered.Range(lo, []value.Value{value.NewFloat(2.5)}, true, true); r.empty {
		t.Fatal("a crossed range is not a ruled-out one") // it seeks and finds nothing
	}
	if r := tb.Clustered.Range([]value.Value{value.NewString("x")}, nil, true, false); !r.empty {
		t.Fatal("a >= 'x' on an INT key is not marked empty")
	}
}
