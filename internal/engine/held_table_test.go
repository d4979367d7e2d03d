package engine

import (
	"fmt"
	"testing"

	"oldelephant/internal/storage/faultfs"
)

// TestHeldTableSurvivesRollback: a *catalog.Table obtained before a refused
// statement stays the catalog's table. The refused INSERT rolls the catalog
// back from its meta snapshot; the good INSERT after it must land in the
// table the caller holds, so its RowCount and a scan of it see the row, in
// memory and on a durable engine. The rollback used to build new Table
// values, leaving the held one detached at the pre-statement row count.
func TestHeldTableSurvivesRollback(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			e := New(Options{})
			if durable {
				e = openDurable(t, faultfs.New(3))
			}
			execAll(t, e, "CREATE TABLE t (id INT, k INT, PRIMARY KEY (id))",
				"CREATE UNIQUE INDEX t_k ON t (k)", "INSERT INTO t VALUES (1, 10)")
			held, err := e.Catalog().Table("t")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Execute("INSERT INTO t VALUES (2, 10)"); err == nil {
				t.Fatal("INSERT of a duplicate unique key succeeded")
			}
			execAll(t, e, "INSERT INTO t VALUES (3, 30)")
			if now, _ := e.Catalog().Table("t"); now != held {
				t.Error("the catalog holds another Table value after the rollback")
			}
			if n := held.RowCount(); n != 2 {
				t.Errorf("held table counts %d rows, want 2", n)
			}
			var ids []int64
			for cur := held.Scan(); ; {
				row, ok, err := cur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				ids = append(ids, row[0].Int())
			}
			if fmt.Sprint(ids) != "[1 3]" {
				t.Errorf("a scan of the held table reads ids %v, want [1 3]", ids)
			}
			if got := queryInts(t, e, "SELECT id FROM t WHERE k = 30"); fmt.Sprint(got) != "[3]" {
				t.Errorf("the unique index finds ids %v for k = 30, want [3]", got)
			}
		})
	}
}
