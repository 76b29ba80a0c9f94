// Package metrics collects the measurements reported in the paper's
// evaluation: accuracy-versus-training-time curves (Figures 3 and 4),
// time-to-target-accuracy (Table I), iteration throughput, worker waiting
// time and the staleness distribution of applied updates.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is one sample of a time series: a value observed at an elapsed
// training time.
type Point struct {
	Elapsed time.Duration
	Value   float64
}

// TimeSeries is an append-only series of (elapsed time, value) samples, e.g.
// test accuracy over wall-clock training time.
type TimeSeries struct {
	name   string
	points []Point
}

// NewTimeSeries returns an empty series with the given name.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{name: name}
}

// Name returns the series name.
func (s *TimeSeries) Name() string { return s.name }

// Add appends a sample. Samples should be appended in non-decreasing time
// order; out-of-order samples are accepted but TimeToReach assumes order.
func (s *TimeSeries) Add(elapsed time.Duration, value float64) {
	s.points = append(s.points, Point{Elapsed: elapsed, Value: value})
}

// Len returns the number of samples.
func (s *TimeSeries) Len() int { return len(s.points) }

// Points returns a copy of the samples.
func (s *TimeSeries) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Last returns the most recent sample and whether one exists.
func (s *TimeSeries) Last() (Point, bool) {
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// Max returns the largest value seen and whether any samples exist.
func (s *TimeSeries) Max() (float64, bool) {
	if len(s.points) == 0 {
		return 0, false
	}
	best := s.points[0].Value
	for _, p := range s.points {
		if p.Value > best {
			best = p.Value
		}
	}
	return best, true
}

// TimeToReach returns the first elapsed time at which the series reached at
// least target, mirroring Table I of the paper ("time to reach 0.67/0.68
// accuracy"). The boolean is false when the target is never reached.
func (s *TimeSeries) TimeToReach(target float64) (time.Duration, bool) {
	for _, p := range s.points {
		if p.Value >= target {
			return p.Elapsed, true
		}
	}
	return 0, false
}

// ValueAt returns the series value in force at the given elapsed time (the
// last sample at or before it). The boolean is false before the first sample.
func (s *TimeSeries) ValueAt(elapsed time.Duration) (float64, bool) {
	var out float64
	found := false
	for _, p := range s.points {
		if p.Elapsed <= elapsed {
			out = p.Value
			found = true
		} else {
			break
		}
	}
	return out, found
}

// Downsample returns a copy of the series keeping roughly n evenly spaced
// samples (always including the first and last), for compact printing.
func (s *TimeSeries) Downsample(n int) *TimeSeries {
	out := NewTimeSeries(s.name)
	if n <= 0 || len(s.points) == 0 {
		return out
	}
	if len(s.points) <= n {
		out.points = append(out.points, s.points...)
		return out
	}
	step := float64(len(s.points)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx >= len(s.points) {
			idx = len(s.points) - 1
		}
		out.points = append(out.points, s.points[idx])
	}
	return out
}

// Histogram accumulates integer observations (e.g. the staleness of applied
// updates) and reports summary statistics.
type Histogram struct {
	counts map[int]int
	total  int
	sum    int64
	max    int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Observe records one observation of v (negative values are clamped to 0).
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	h.counts[v]++
	h.total++
	h.sum += int64(v)
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return h.total }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int { return h.max }

// Quantile returns the smallest value v such that at least q (0..1) of the
// observations are <= v. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	need := int(math.Ceil(q * float64(h.total)))
	if need == 0 {
		need = 1
	}
	seen := 0
	for _, k := range keys {
		seen += h.counts[k]
		if seen >= need {
			return k
		}
	}
	return keys[len(keys)-1]
}

// Buckets returns the observed values and their counts sorted by value.
func (h *Histogram) Buckets() ([]int, []int) {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	counts := make([]int, len(keys))
	for i, k := range keys {
		counts[i] = h.counts[k]
	}
	return keys, counts
}

// WaitTracker accumulates per-worker waiting time (the quantity DSSP's
// controller tries to minimize).
type WaitTracker struct {
	total []time.Duration
}

// NewWaitTracker returns a tracker for n workers.
func NewWaitTracker(n int) *WaitTracker {
	return &WaitTracker{total: make([]time.Duration, n)}
}

// Record adds one waiting episode of duration d for worker w.
func (wt *WaitTracker) Record(w int, d time.Duration) {
	if w < 0 || w >= len(wt.total) {
		panic(fmt.Sprintf("metrics: worker %d out of range [0,%d)", w, len(wt.total)))
	}
	if d < 0 {
		d = 0
	}
	wt.total[w] += d
}

// Total returns worker w's accumulated waiting time.
func (wt *WaitTracker) Total(w int) time.Duration { return wt.total[w] }

// Sum returns the total waiting time across all workers.
func (wt *WaitTracker) Sum() time.Duration {
	var s time.Duration
	for _, d := range wt.total {
		s += d
	}
	return s
}
