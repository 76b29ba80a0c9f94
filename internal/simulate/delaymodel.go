package simulate

import (
	"math/rand"
	"time"
)

// LinkModel is a two-state Markov-modulated link: transfers over the link
// cost their nominal time in the good state and Multiplier times as much in
// the bad state, with exponentially distributed dwell times in each. This
// is the standard Gilbert-Elliott-style degradation model; the presets
// below cover the hostile-network scenarios of the experiment harness.
//
// The zero LinkModel is a calm link (no modulation). MeanGood == 0 with
// MeanBad > 0 pins the link in the bad state permanently — a constant
// slowdown rather than flapping.
type LinkModel struct {
	// Multiplier scales transfer time while the link is bad. Values <= 1
	// disable the model.
	Multiplier float64
	// MeanGood is the expected dwell time in the good state (0 = never
	// good: the link is permanently bad).
	MeanGood time.Duration
	// MeanBad is the expected dwell time in the bad state.
	MeanBad time.Duration
}

// active reports whether the model modulates anything.
func (m LinkModel) active() bool { return m.Multiplier > 1 && m.MeanBad > 0 }

// Link presets for scenario matrices.

// LinkFlapping degrades in short bursts: 10x transfer cost about a fifth of
// the time — a congested or lossy path with retransmission storms.
func LinkFlapping() LinkModel {
	return LinkModel{Multiplier: 10, MeanGood: 200 * time.Millisecond, MeanBad: 50 * time.Millisecond}
}

// LinkPartitioned models hard outages: the link periodically becomes close
// to unusable (40x) for extended stretches, as in a routing flap or switch
// failure, then recovers.
func LinkPartitioned() LinkModel {
	return LinkModel{Multiplier: 40, MeanGood: 300 * time.Millisecond, MeanBad: 150 * time.Millisecond}
}

// linkState is the per-worker runtime state of a LinkModel's Markov chain.
type linkState struct {
	model   LinkModel
	started bool
	bad     bool
	until   time.Duration
}

// newLinkState starts a link in the good state (or pinned bad when MeanGood
// is zero).
func newLinkState(m LinkModel) linkState {
	return linkState{model: m, bad: m.active() && m.MeanGood == 0}
}

// multiplier advances the chain to time now and returns the current
// transfer-cost multiplier.
func (l *linkState) multiplier(now time.Duration, rng *rand.Rand) float64 {
	if !l.model.active() {
		return 1
	}
	if l.model.MeanGood == 0 {
		return l.model.Multiplier // permanently bad
	}
	if !l.started {
		l.started = true
		l.until = l.dwell(rng)
	}
	for l.until <= now {
		l.bad = !l.bad
		l.until += l.dwell(rng)
	}
	if l.bad {
		return l.model.Multiplier
	}
	return 1
}

// dwell samples an exponential dwell time for the current state.
func (l *linkState) dwell(rng *rand.Rand) time.Duration {
	mean := l.model.MeanGood
	if l.bad {
		mean = l.model.MeanBad
	}
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d <= 0 {
		d = 1
	}
	return d
}
