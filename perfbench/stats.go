package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: p50 needs 20 samples, p90 100 and p99 1000.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// and false when fewer than minTail samples lie beyond it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || float64(n)*(1-q) < minTail-1e-9 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
