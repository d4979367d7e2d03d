package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestLargeKeySplitKeepsEveryRow is the regression test for a node split cut
// at the middle entry by count: after 120 short keys, four keys of about 2 KB
// land in the last leaf, and a count-balanced cut left one half holding all
// four — more bytes than a page holds — which the leaf rewrite silently
// truncated. Every acknowledged INSERT must be readable, by count and by key.
func TestLargeKeySplitKeepsEveryRow(t *testing.T) {
	e := Default()
	mustExec(t, e, "CREATE TABLE t (k VARCHAR(2100), PRIMARY KEY (k))")
	var keys []string
	for i := 0; i < 120; i++ {
		keys = append(keys, fmt.Sprintf("k%03d", i))
	}
	for i := 0; i < 4; i++ {
		keys = append(keys, strings.Repeat("x", 2000)+fmt.Sprint(i))
	}
	for _, k := range keys {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES ('%s')", k))
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM t")
	if got := res.Rows[0][0].Int(); got != int64(len(keys)) {
		t.Fatalf("COUNT(*) = %d after %d acknowledged INSERTs", got, len(keys))
	}
	for _, k := range keys[len(keys)-4:] {
		res := mustExec(t, e, fmt.Sprintf("SELECT COUNT(*) FROM t WHERE k = '%s'", k))
		if got := res.Rows[0][0].Int(); got != 1 {
			t.Errorf("key x..%s: %d rows, want 1", k[len(k)-1:], got)
		}
	}
}
