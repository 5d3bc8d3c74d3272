package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no values. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how
// the benchmark contract measures spread. Fewer than two values have no
// spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
