// Package metrics holds the accuracy-versus-training-time curves of the
// paper's evaluation (Figures 3 and 4) and the time-to-target-accuracy read
// off them (Table I). A running server's counters, staleness and waits live
// in internal/obs; the simulator reads them off its own update log.
package metrics

import (
	"math"
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
