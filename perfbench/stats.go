package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a tail
// percentile backed by fewer samples is one outlier wide.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := nearestRank(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the nearest-rank p-th percentile
// position of an n-sample set.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// nearestRank is ⌈p·n/100⌉, tolerant of p/100 not being exact in binary.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailCandidates are the percentiles tailPercentile considers, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile reports the highest candidate percentile that has at least
// minBeyond samples beyond it, its value, and the sample count. ok is false
// when even the median lacks that support.
func tailPercentile(values []float64) (p, v float64, n int, ok bool) {
	n = len(values)
	sorted := sortedCopy(values)
	for _, c := range tailCandidates {
		if n > 0 && beyond(n, c) >= minBeyond {
			return c, percentile(sorted, c), n, true
		}
	}
	return 0, 0, n, false
}

// supports reports whether n samples carry a p-th percentile.
func supports(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method, which is how run-to-run spread is judged.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sortedCopy(values)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		// Python clamps j into [1, n-1] and takes delta after the clamp.
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median returns the middle value (mean of the middle two for even n).
func median(values []float64) float64 {
	d := sortedCopy(values)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / q2
}

func sortedCopy(values []float64) []float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	return d
}
