package main

import (
	"testing"

	elephant "oldelephant"
	"oldelephant/internal/value"
)

func rows(cells ...[]elephant.Value) []elephant.Row {
	out := make([]elephant.Row, len(cells))
	for i, c := range cells {
		out[i] = c
	}
	return out
}

func TestDigestAndSameRows(t *testing.T) {
	a := rows(
		[]elephant.Value{value.NewInt(1), value.NewFloat(10.5)},
		[]elephant.Value{value.NewInt(2), value.NewFloat(20.25)},
	)
	reordered := rows(a[1], a[0])
	rounded := rows(
		[]elephant.Value{value.NewInt(1), value.NewFloat(10.5 * (1 + 1e-12))},
		[]elephant.Value{value.NewInt(2), value.NewFloat(20.25)},
	)
	swapped := rows(
		[]elephant.Value{value.NewInt(1), value.NewFloat(20.25)},
		[]elephant.Value{value.NewInt(2), value.NewFloat(10.5)},
	)
	wrongKey := rows(
		[]elephant.Value{value.NewInt(1), value.NewFloat(10.5)},
		[]elephant.Value{value.NewInt(3), value.NewFloat(20.25)},
	)
	for name, other := range map[string][]elephant.Row{"reordered": reordered, "rounded": rounded} {
		if !digestRows(a).equal(digestRows(other)) {
			t.Errorf("%s rows have a different digest", name)
		}
		if err := sameRows(a, other); err != nil {
			t.Errorf("%s rows: %v", name, err)
		}
	}
	for name, other := range map[string][]elephant.Row{"swapped floats": swapped, "wrong key": wrongKey, "missing row": a[:1]} {
		if digestRows(a).equal(digestRows(other)) {
			t.Errorf("%s: same digest", name)
		}
		if sameRows(a, other) == nil {
			t.Errorf("%s: sameRows found no difference", name)
		}
	}
}
