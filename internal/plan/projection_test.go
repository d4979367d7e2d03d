package plan

import (
	"testing"

	"oldelephant/internal/exec"
)

// accessCols digs through the single-input operator chain of a plan and
// returns the projected column set of the access path at the bottom.
func accessCols(t *testing.T, op exec.Operator) []int {
	t.Helper()
	for {
		switch o := op.(type) {
		case *exec.TableScan:
			return o.Cols
		case *exec.IndexSeek:
			return o.Cols
		case *exec.Filter:
			op = o.Input
		case *exec.Project:
			op = o.Input
		case *exec.Limit:
			op = o.Input
		case *exec.Sort:
			op = o.Input
		case *exec.StreamAggregate:
			op = o.Input
		case *exec.HashAggregate:
			op = o.Input
		default:
			t.Fatalf("unexpected operator %T while walking to the access path", op)
			return nil
		}
	}
}

// TestProjectionPushdownMinimalCols pins that every access path receives the
// minimal base-table column set a query touches — the contract the projected
// tuple decode depends on: a scan that is handed all ordinals decodes the
// whole tuple and the skip-decode machinery never fires.
func TestProjectionPushdownMinimalCols(t *testing.T) {
	c := newSeekCatalog(t)
	cases := []struct {
		query string
		want  int
	}{
		// SeqScan: kind (predicate) + amount (aggregate) of 4 columns.
		{"SELECT SUM(amount) FROM events WHERE kind = 'click'", 2},
		// ClusteredSeek: user_id and amount are output, and day stays
		// projected because the planner keeps the pushed range's predicate as
		// a residual filter — 3 of 4 columns, never the whole row.
		{"SELECT user_id, amount FROM events WHERE day = DATE '2008-03-01'", 3},
		// Covering IndexSeek: equality on user_id, amount included.
		{"SELECT user_id, amount FROM events WHERE user_id = 7", 2},
		// Single-column aggregate over a scan.
		{"SELECT MIN(amount) FROM events", 1},
	}
	for _, tc := range cases {
		p := planFor(t, c, tc.query)
		cols := accessCols(t, p.Root)
		if len(cols) != tc.want {
			t.Errorf("%q: access path projects %d columns %v, want %d\nplan: %s",
				tc.query, len(cols), cols, tc.want, p.Explain)
		}
	}
}
