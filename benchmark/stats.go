package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics (the "type 7" rule). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// p25 is the estimator every repeated timing is summarised by: interference
// on a shared runner only adds time, so the lower quartile is the program's
// cost when the machine is not being taxed.
func p25(xs []float64) float64 { return quantile(xs, 0.25) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// iqrShare is (p75 − p25) ÷ median: how noisy a sample was.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return math.NaN()
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// classMean is the mean, over the statements of one class, of est applied to
// each statement's own samples. A mean of per-statement quartiles moves
// smoothly when any statement moves; a percentile taken across the mix would
// sit on the edge between two statements.
func classMean(samples map[string][]float64, members []string, est func([]float64) float64) float64 {
	if len(members) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, m := range members {
		sum += est(samples[m])
	}
	return sum / float64(len(members))
}

// geoMean is the geometric mean of positive values; NaN when any is not.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
