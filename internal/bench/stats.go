package bench

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Percentile is the nearest-rank q-quantile (0 < q ≤ 1) of an ascending
// sample: the value at rank ⌈q·n⌉. An empty sample yields 0.
func Percentile(asc []float64, q float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return asc[rank-1]
}

// Supported reports whether a sample of n values carries the q-quantile:
// a tail percentile is only reported when at least ten samples lie beyond
// its nearest rank, otherwise it is one outlier's latency, not a quantile.
func Supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

// Median returns the middle value of xs (the mean of the middle two for an
// even count). It is what turns per-slice readings into a workload's
// metric: one stalled slice moves a mean, not a median.
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is the spread the benchmark's acceptance check is stated in. It needs at
// least two values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// Spread is the interquartile range of xs as a share of its median — the
// run-to-run steadiness figure a metric's bound is judged against.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / med)
}
