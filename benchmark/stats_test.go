package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2, 5}, 0.25, 2},
		{[]float64{4, 1, 3, 2, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{7}, 0.25, 7},
		{[]float64{10, 20}, 0.99, 19.9},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.25)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestP25IgnoresSlowOutliers(t *testing.T) {
	quiet := []float64{10, 10, 10, 10, 10, 10, 10, 10}
	taxed := []float64{10, 10, 10, 10, 13, 13, 14, 30}
	if p25(quiet) != p25(taxed) {
		t.Errorf("p25 moved from %g to %g when only the slow half got slower", p25(quiet), p25(taxed))
	}
}

func TestClassMean(t *testing.T) {
	samples := map[string][]float64{
		"a": {1, 1, 1, 9},
		"b": {3, 3, 3, 3},
		"c": {100},
	}
	if got := classMean(samples, []string{"a", "b"}, p25); got != 2 {
		t.Errorf("classMean over a, b = %g, want 2", got)
	}
	// Every statement counts once, however many samples it has.
	if got := classMean(samples, []string{"b", "c"}, median); got != 51.5 {
		t.Errorf("classMean over b, c = %g, want 51.5", got)
	}
	if !math.IsNaN(classMean(samples, []string{"a", "missing"}, p25)) {
		t.Error("a statement without samples did not make the class NaN")
	}
}

func TestIQRShareAndGeoMean(t *testing.T) {
	if got := iqrShare([]float64{1, 2, 3, 4, 5}); got != 2.0/3 {
		t.Errorf("iqrShare = %g, want 2/3", got)
	}
	if got := geoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geoMean(2, 8) = %g, want 4", got)
	}
	if !math.IsNaN(geoMean([]float64{2, 0})) {
		t.Error("geoMean with a zero is not NaN")
	}
}
