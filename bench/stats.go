package main

import (
	"math"
	"sort"
)

// latency summarises one run's operation times. Percentiles are
// nearest-rank on the sorted sample, so each is a value that was
// measured; N is printed beside them because a p99 over 5 samples is the
// slowest one and the reader should know.
type latency struct {
	P50, P90, P99, P999 float64 // microseconds
	N                   int
}

// quantile returns the nearest-rank q-quantile of an ascending sample:
// the smallest value with at least q·n samples at or below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarize sorts ns in place and returns its percentiles in µs.
func summarize(ns []int64) latency {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	us := func(q float64) float64 { return float64(quantile(ns, q)) / 1e3 }
	return latency{P50: us(0.50), P90: us(0.90), P99: us(0.99), P999: us(0.999), N: len(ns)}
}

// median returns the middle of xs (mean of the middle two when even),
// leaving xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

func medianNS(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs)
}

// quartileSpread is (Q3−Q1)/median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method) — the
// spread the acceptance driver computes, so -all and -compare judge
// steadiness by the same rule. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / med
}
