package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice; 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// tailLadder is the set of tail percentiles a "*_p99" metric may fall back
// to, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it (choosing-metrics §1): p99 needs 1000
// samples, p90 needs 100. Below 20 samples only the median is left.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 1000 { // n × (1 − p/100) ≥ 10 without the rounding
			return p
		}
	}
	return 50
}

// minMax returns the extremes of xs; zeros for no samples.
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// mean returns the arithmetic mean of xs; 0 for no samples.
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
