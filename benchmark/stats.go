package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted sample: the smallest value with at least p % of the
// sample at or below it. Nearest-rank never interpolates, so the result is
// always a latency some request actually saw.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle of vs (the mean of the two middle values for an
// even count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartileSpread is the contract's steadiness measure: the distance between
// the first and third quartile as a share of the median. The quartiles are
// the exclusive-method cut points Python's statistics.quantiles(vs, n=4)
// returns, so the number printed here is the number the driver computes.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}
