package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"oldelephant/internal/value"
)

// TestParallelGroupByBeyondFloatPrecision is the regression test for the
// vectorized hash aggregate's single-column fast path, which keyed groups by
// the float64 sort word of the group value: from ±2^53 on adjacent integers
// share that word, so 9007199254740992 and 9007199254740993 were counted as
// one group ([7 1] [9007199254740992 3]) while the row engine, grouping by the
// full encoded key, kept them apart. Both of the aggregate's loops are held to
// the row engine's answer — the flat per-row loop (k is no key) and the RLE
// segment walk (k is the clustered key, so the scan emits runs) — with
// compression on and off, serial and at Parallelism 2, over enough rows that
// the parallel plan really splits the scan.
func TestParallelGroupByBeyondFloatPrecision(t *testing.T) {
	const big = int64(1) << 53
	var rows [][]value.Value
	add := func(k int64) {
		rows = append(rows, []value.Value{value.NewInt(int64(len(rows))), value.NewInt(k)})
	}
	for _, k := range []int64{big, big + 1, big + 1, 7, -big, -big - 1, -big - 1, -big - 1, big + 2} {
		add(k)
	}
	for i := 0; i < 20000; i++ {
		add(int64(i % 50))
	}
	type answer struct{ k, n int64 }
	run := func(opts Options, table string) ([]answer, string) {
		t.Helper()
		e := New(opts)
		for _, s := range []string{
			"CREATE TABLE g (id INT, k INT, PRIMARY KEY (id))",
			"CREATE TABLE gk (id INT, k INT, PRIMARY KEY (k))",
		} {
			if _, err := e.Execute(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.BulkLoad(table, rows); err != nil {
			t.Fatal(err)
		}
		// The hint keeps the clustered table off the stream aggregate, which
		// never had the fast path.
		res, err := e.Query("SELECT k, COUNT(*) FROM " + table + " GROUP BY k OPTION(HASH AGG)")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan, "HashAggregate(SeqScan("+table+"))") {
			t.Fatalf("plan %s is not a hash aggregate over a scan of %s", res.Plan, table)
		}
		out := make([]answer, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = answer{r[0].I, r[1].I}
		}
		return out, res.Plan
	}
	for _, table := range []string{"g", "gk"} {
		want, _ := run(Options{DisableVectorized: true, Parallelism: 1}, table)
		counts := map[int64]int64{}
		for _, a := range want {
			counts[a.k] = a.n
		}
		if counts[big] != 1 || counts[big+1] != 2 || counts[big+2] != 1 || counts[-big] != 1 || counts[-big-1] != 3 || counts[7] != 401 {
			t.Fatalf("%s: the row engine's own answer is wrong: %v", table, want)
		}
		for _, workers := range []int{1, 2} {
			got, plan := run(Options{Parallelism: workers}, table)
			if !reflect.DeepEqual(got, want) {
				var diff []string
				for _, a := range got {
					if counts[a.k] != a.n {
						diff = append(diff, fmt.Sprintf("[%d %d]", a.k, a.n))
					}
				}
				t.Errorf("%s P=%d: groups %v differ from the row engine's (%d groups against %d)\nplan %s",
					table, workers, diff, len(got), len(want), plan)
			}
		}
	}
}
