package engine

import (
	"fmt"
	"strings"
	"testing"

	"oldelephant/internal/value"
)

// TestParallelDuplicateKeyIndexLookup is the regression test for the
// uncovered secondary-index seek over duplicate clustered keys: two rows
// share k = 1 and x = 5 and differ only in y, which the index on x does not
// carry, so the plan is IndexSeek(t.ix + lookup) and each entry must resolve
// to its own base row. Resolving by clustered-key prefix returned the first
// matching row for both entries ([a] [a]); the entry's exact locator returns
// [a] [b]. Covered under both pull protocols, serial and Parallelism 2, and
// with the index built before and after the rows arrive (insertEntry vs
// rebuild). The filler rows carry a 100-byte y, so the table spans about 280
// leaves and two lookups cost less than scanning it.
func TestParallelDuplicateKeyIndexLookup(t *testing.T) {
	filler := make([][]value.Value, 20000)
	pad := strings.Repeat("f", 100)
	for i := range filler {
		k := int64(i + 10)
		filler[i] = []value.Value{value.NewInt(k), value.NewInt(k), value.NewString(pad)}
	}
	const createIndex = "CREATE INDEX ix ON t (x)"
	dups := []string{"INSERT INTO t VALUES (1, 5, 'a')", "INSERT INTO t VALUES (1, 5, 'b')"}
	// With a one-byte y the table spans about 40 leaves: a random read per
	// looked-up row on top of the index descent costs more than the scan,
	// which must then answer the same.
	narrow := New(Options{})
	execAll(t, narrow, "CREATE TABLE t (k INT, x INT, y VARCHAR(8), PRIMARY KEY (k))", createIndex)
	for i := range filler {
		filler[i][2] = value.NewString("f")
	}
	if err := narrow.BulkLoad("t", filler); err != nil {
		t.Fatal(err)
	}
	execAll(t, narrow, dups...)
	res, err := narrow.Query("SELECT y FROM t WHERE x = 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "SeqScan") || len(res.Rows) != 2 {
		t.Fatalf("narrow table: %d rows from %s, want two from a scan", len(res.Rows), res.Plan)
	}
	for i := range filler {
		filler[i][2] = value.NewString(pad)
	}
	for _, indexFirst := range []bool{false, true} {
		for _, rowProtocol := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("indexFirst=%v/row=%v/P=%d", indexFirst, rowProtocol, workers)
				e := New(Options{DisableVectorized: rowProtocol, Parallelism: workers})
				stmts := []string{"CREATE TABLE t (k INT, x INT, y VARCHAR, PRIMARY KEY (k))"}
				if indexFirst {
					stmts = append(stmts, createIndex)
				}
				for _, s := range stmts {
					if _, err := e.Execute(s); err != nil {
						t.Fatalf("%s: %s: %v", name, s, err)
					}
				}
				if err := e.BulkLoad("t", filler); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				stmts = dups
				if !indexFirst {
					stmts = append(stmts[:len(stmts):len(stmts)], createIndex)
				}
				for _, s := range stmts {
					if _, err := e.Execute(s); err != nil {
						t.Fatalf("%s: %s: %v", name, s, err)
					}
				}
				res, err := e.Query("SELECT y FROM t WHERE x = 5")
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !strings.Contains(res.Plan, "IndexSeek(t.ix + lookup)") {
					t.Fatalf("%s: plan %s does not look rows up through the index", name, res.Plan)
				}
				var got []string
				for _, row := range res.Rows {
					got = append(got, row[0].S)
				}
				if strings.Join(got, ",") != "a,b" {
					t.Errorf("%s: SELECT y WHERE x = 5 returned %v, want [a b]", name, got)
				}
			}
		}
	}
}
