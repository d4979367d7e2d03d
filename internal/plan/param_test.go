package plan

import (
	"context"
	"fmt"
	"testing"

	"oldelephant/internal/exec"
	"oldelephant/internal/sql"
	"oldelephant/internal/value"
)

// TestBindRewritesSeekBoundsAndConstants: a plan compiled from a statement
// with parameter slots records where it holds each slot — the clustered
// seek's lower and upper bound and the residual predicate's constants — and
// Bind writes each execution's values into all of them, so the seek reads
// the bound key's range, not the one the plan was compiled with, and the plan
// answers as the literal statement's own plan does.
func TestBindRewritesSeekBoundsAndConstants(t *testing.T) {
	c := newSeekCatalog(t)
	stmt, err := sql.ParseSelect("SELECT user_id, amount FROM events WHERE day = DATE '2008-02-01' AND user_id = 7")
	if err != nil {
		t.Fatal(err)
	}
	shape, _ := sql.Parameterize(stmt, func(*sql.ColRef, value.Value) bool { return true })
	pl, err := NewPlanner(c).PlanSelect(shape)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Slots) != 2 || len(pl.Slots[0]) != 3 || len(pl.Slots[1]) != 1 || !pl.SlotBounds {
		t.Fatalf("slot uses %v, SlotBounds %v; want the day slot in both seek bounds and the filter, the user slot in the filter", pl.Slots, pl.SlotBounds)
	}
	var scan *exec.TableScan
	for op := pl.Root; scan == nil; {
		if s, ok := op.(*exec.TableScan); ok {
			scan = s
			break
		}
		op = *op.(exec.Parent).Child(0)
	}
	base := value.MustParseDate("2008-01-01").Int()
	// Row i has day i%200 and user i%50, so user = day%50 holds rows.
	for _, k := range []struct{ day, user int64 }{{40, 40}, {3, 3}, {199, 49}, {120, 8}} {
		day := value.NewDate(base + k.day)
		if err := pl.Bind([]value.Value{day, value.NewInt(k.user)}); err != nil {
			t.Fatal(err)
		}
		if value.Compare(scan.Lo[0], day) != 0 || value.Compare(scan.Hi[0], day) != 0 {
			t.Fatalf("day %d: seek bounds [%v, %v]", k.day, scan.Lo, scan.Hi)
		}
		got, err := exec.Drain(context.Background(), pl.Root)
		if err != nil {
			t.Fatal(err)
		}
		lit, err := NewPlanner(c).PlanSelect(sql.Bind(shape, []value.Value{day, value.NewInt(k.user)}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Drain(context.Background(), lit.Root)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || (len(want) == 0) != (k.user != k.day%50) {
			t.Fatalf("day %d, user %d: %d rows %v, want %d rows %v", k.day, k.user, len(got), got, len(want), want)
		}
	}
	if err := pl.Bind(nil); err == nil {
		t.Error("Bind took no values for two slots")
	}
}
