package exec

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"oldelephant/internal/expr"
	"oldelephant/internal/value"
)

// referenceSort is the comparator sort Sort replaced, kept as its reference:
// the rows stably sorted by value.Compare on each key in turn, a DESC key's
// comparison negated.
func referenceSort(rows []Row, keys []SortKey) []Row {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b Row) int {
		for _, k := range keys {
			if c := value.Compare(a[k.Col], b[k.Col]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return out
}

// checkSortOrder holds Sort over rows to referenceSort, value for value down
// to kinds and the sign of zero: serial, and at two workers over a
// ParallelMerge of morsels, through the row pull and the batch pull. The rows
// reach the Sort through a filter that drops a junk row after every seventh,
// so its input batches carry selection vectors.
func checkSortOrder(t *testing.T, cols []ColumnInfo, rows []Row, keys []SortKey) {
	t.Helper()
	want := referenceSort(rows, keys)
	var input []Row
	for i, row := range rows {
		if input = append(input, row); i%7 == 6 {
			input = append(input, Row{value.Null(), value.NewString("junk"), value.NewFloat(1), value.NewInt(-1)})
		}
	}
	keep := func(src Operator) Operator {
		return NewFilter(src, expr.NewBinary(expr.OpGe, expr.NewColumn(3, "pos"), expr.NewConst(value.NewInt(0))))
	}
	plans := map[string]Operator{"serial": NewSort(keep(NewValuesScan(cols, input)), keys)}
	src := &valuesMorseler{ValuesScan: NewValuesScan(cols, input), chunk: max(1, len(input)/5), emptyEvery: 3}
	if par, ok := NewSort(src, keys).ParallelForm(src, keep, 2); ok {
		plans["workers=2"] = par
	}
	pulls := map[string]func(context.Context, Operator) ([]Row, error){"row": Drain, "batch": DrainBatches}
	for name, op := range plans {
		for pull, drain := range pulls {
			got, err := drain(nil, op)
			if err != nil {
				t.Fatalf("%s, %s pull: %v", name, pull, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %s pull: %d rows, want %d", name, pull, len(got), len(want))
			}
			for i := range got {
				if !slices.EqualFunc(got[i], want[i], identical) {
					t.Fatalf("%s, %s pull, keys %v: row %d is %v, want %v", name, pull, keys, i, got[i], want[i])
				}
			}
		}
	}
}

// identical reports whether two values are the same value of the same kind,
// telling -0.0 from +0.0.
func identical(a, b value.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// sortDomains are three value domains on which value.Compare is a total
// preorder — numbers of every numeric kind, strings, and both — so a sort on
// them has one right answer. They hold no NaN, and no float of magnitude 2^53
// or more but ±Inf and ±1e300, which no integer equals: no INT and FLOAT
// beyond ±2^53 compare equal.
var sortDomains = func() [3][]value.Value {
	var nums, strs []value.Value
	for _, i := range []int64{math.MinInt64, -1<<53 - 1, -65536, -256, -1, 0, 1, 2, 255, 256, 1 << 53, 1<<53 + 1, math.MaxInt64} {
		nums = append(nums, value.NewInt(i), value.NewDate(i))
	}
	for _, f := range []float64{math.Inf(-1), -1e300, -2.5, -1, math.Copysign(0, -1), 0, 0.5, 1, 2, 3, 1e300, math.Inf(1)} {
		nums = append(nums, value.NewFloat(f))
	}
	nums = append(nums, value.NewBool(false), value.NewBool(true))
	for _, s := range []string{"", "\x00", "a", "a\x00", "a\x00\x00", "a\x00b", "ab", "abc", "b", "\xff"} {
		strs = append(strs, value.NewString(s))
	}
	return [3][]value.Value{nums, strs, append(slices.Clone(nums), strs...)}
}()

// sortValue is a value of domain d picked by b, NULL for one b in nine.
func sortValue(d, b int) value.Value {
	if b%9 == 0 {
		return value.Null()
	}
	return sortDomains[d][b%len(sortDomains[d])]
}

// sortCols is the schema of the rows the sort tests draw: three columns of
// numbers, strings and both, and each row's input position, which no key
// reads, so a tie out of input order shows (checkSortOrder's junk rows are
// at position -1).
var sortCols = []ColumnInfo{{Name: "num"}, {Name: "str"}, {Name: "mix"}, {Name: "pos", Kind: value.KindInt}}

// TestSortOrdersLikeCompare: 40,000 rows, enough for the parallel form to
// encode and order on both workers, sorted on every column mix in both
// directions, come out as the comparator sort puts them.
func TestSortOrdersLikeCompare(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rows := make([]Row, 40000)
	for i := range rows {
		rows[i] = Row{sortValue(0, r.Intn(1<<20)), sortValue(1, r.Intn(1<<20)), sortValue(2, r.Intn(1<<20)), value.NewInt(int64(i))}
	}
	for _, keys := range [][]SortKey{
		{{Col: 2}, {Col: 0, Desc: true}},
		{{Col: 1, Desc: true}, {Col: 2}},
		{{Col: 0}, {Col: 1}, {Col: 2, Desc: true}},
	} {
		checkSortOrder(t, sortCols, rows, keys)
	}
}

// FuzzSortOrder: rows of NULLs, INT, FLOAT, DATE and BOOL values that
// compare equal across kinds (1, 1.0, a date 1 and TRUE; -0.0 and +0.0) and
// strings with NUL bytes, sorted on one to three of their columns in either
// direction, come out of Sort as the comparator sort puts them.
func FuzzSortOrder(f *testing.F) {
	f.Add([]byte{0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x35, 9, 9, 9, 1, 1, 1, 9, 9, 9, 1, 1, 1, 27, 28, 29, 30, 31, 32})
	f.Add([]byte("\x1e the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 18, 18, 18, 44, 45, 46, 47, 48, 49, 50, 51, 52})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var keys []SortKey
		for i, col := range []int{0, 1, 2}[:1+int(data[0]%3)] {
			keys = append(keys, SortKey{Col: (col + int(data[0]>>2)) % 3, Desc: data[0]>>(5+i)&1 == 1})
		}
		var rows []Row
		for i := 1; i+3 <= len(data) && len(rows) < 400; i += 3 {
			rows = append(rows, Row{sortValue(0, int(data[i])), sortValue(1, int(data[i+1])), sortValue(2, int(data[i+2])), value.NewInt(int64(len(rows)))})
		}
		checkSortOrder(t, sortCols, rows, keys)
	})
}
