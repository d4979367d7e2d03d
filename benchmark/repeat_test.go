package main

import (
	"math"
	"testing"
)

func TestCompare(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		a, b   []float64
		bound  float64
		breach bool
	}{
		{"within", []float64{100, 101, 99}, []float64{104, 105, 103}, 0.10, false},
		{"worse", []float64{100, 100, 100}, []float64{140, 140, 140}, 0.10, true},
		{"better by as much is a breach too", []float64{140, 140, 140}, []float64{100, 100, 100}, 0.10, true},
		{"exact", []float64{226.2, 226.2, 226.2}, []float64{226.2, 226.2, 226.2}, 0.01, false},
		{"missing set", []float64{1, 2, 3}, nil, 0.10, true},
		{"missing run", []float64{1, 1, 1}, []float64{1, 1}, 0.10, true},
		{"NaN", []float64{1, nan, 1}, []float64{1, 1, 1}, 0.10, true},
		{"zero", []float64{1, 1, 1}, []float64{1, 0, 1}, 0.10, true},
		{"both empty", nil, nil, 0.10, true},
	}
	for _, c := range cases {
		if got := compare(c.a, c.b, c.bound); got.breach != c.breach {
			t.Errorf("%s: breach = %v, want %v (%+v)", c.name, got.breach, c.breach, got)
		}
	}
	c := compare([]float64{100, 100, 100}, []float64{105, 105, 105}, 0.10)
	if math.Abs(c.diff-0.05) > 1e-12 || c.medA != 100 || c.medB != 105 {
		t.Errorf("compare = %+v", c)
	}
}
