package core

import (
	"testing"
	"testing/quick"
	"time"
)

// randomDurations builds a slice of n per-worker iteration durations in
// [min, max) from the given seed.
func randomDurations(seed int64, n int, min, max time.Duration) []time.Duration {
	rng := newTestRand(seed)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = min + time.Duration(rng.Int63n(int64(max-min)))
	}
	return out
}

// TestPropertyNoPolicyDeadlocks checks that under randomly heterogeneous
// worker speeds, every paradigm keeps making progress: the replay driver can
// always execute the requested number of push events.
func TestPropertyNoPolicyDeadlocks(t *testing.T) {
	property := func(seed int64, nWorkers uint8, staleness uint8) bool {
		n := int(nWorkers%6) + 2  // 2..7 workers
		s := int(staleness % 8)   // 0..7
		r := int(staleness%5) * 2 // 0..8
		durations := randomDurations(seed, n, 10*time.Millisecond, 5*time.Second)
		policies := []struct {
			label string
			p     Policy
		}{
			{"BSP", MustNewBSP(n)},
			{"ASP", MustNewASP(n)},
			{"SSP", MustNewSSP(n, s)},
			{"DSSP", MustNewDSSP(n, s, r)},
		}
		for _, tc := range policies {
			drv := newReplayDriver(tc.p, durations)
			if !drv.run(200) {
				t.Logf("%s (n=%d s=%d r=%d) deadlocked with durations %v", tc.label, n, s, r, durations)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySSPSpreadBound checks the defining SSP invariant: the
// difference between the fastest and slowest worker's iteration counts never
// exceeds s+1 (the pushing worker may be one iteration past the bound while
// it is being blocked).
func TestPropertySSPSpreadBound(t *testing.T) {
	property := func(seed int64, nWorkers, staleness uint8) bool {
		n := int(nWorkers%6) + 2
		s := int(staleness % 10)
		durations := randomDurations(seed, n, 10*time.Millisecond, 3*time.Second)
		drv := newReplayDriver(MustNewSSP(n, s), durations)
		if !drv.run(400) {
			return false
		}
		return drv.maxSpread <= s+1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDSSPSpreadBound checks the DSSP analogue of the SSP invariant
// in the Theorem-2-compliant mode: the spread never exceeds sU+1 = sL+rmax+1,
// which is what makes Theorem 2's regret bound applicable.
func TestPropertyDSSPSpreadBound(t *testing.T) {
	property := func(seed int64, nWorkers, lower, rng uint8) bool {
		n := int(nWorkers%6) + 2
		sl := int(lower % 6)
		r := int(rng % 14)
		durations := randomDurations(seed, n, 10*time.Millisecond, 3*time.Second)
		policy := MustNewDSSP(n, sl, r)
		policy.EnforceUpperBound(true)
		drv := newReplayDriver(policy, durations)
		if !drv.run(400) {
			return false
		}
		return drv.maxSpread <= sl+r+1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDSSPLowerBoundAlwaysHolds checks that in BOTH modes a worker
// within sL of the slowest is never blocked: DSSP only ever relaxes
// synchronization relative to SSP(sL).
func TestPropertyDSSPLowerBoundAlwaysHolds(t *testing.T) {
	property := func(seed int64, nWorkers, lower, rng uint8, enforce bool) bool {
		n := int(nWorkers%5) + 2
		sl := int(lower % 5)
		r := int(rng%10) + 1
		durations := randomDurations(seed, n, 10*time.Millisecond, 2*time.Second)
		policy := MustNewDSSP(n, sl, r)
		policy.EnforceUpperBound(enforce)
		drv := newReplayDriver(&lowerBoundAuditor{DSSP: policy, t: t}, durations)
		return drv.run(300)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// lowerBoundAuditor fails the test when a pushing worker within sL of the
// slowest is not released immediately.
type lowerBoundAuditor struct {
	*DSSP
	t *testing.T
}

func (a *lowerBoundAuditor) OnPush(w WorkerID, now time.Time) Decision {
	d := a.DSSP.OnPush(w, now)
	slowest := a.Clock(w)
	for i := 0; i < a.NumWorkers(); i++ {
		if c := a.Clock(WorkerID(i)); c < slowest {
			slowest = c
		}
	}
	if a.Clock(w)-slowest <= a.LowerBound() {
		released := false
		for _, id := range d.Release {
			if id == w {
				released = true
			}
		}
		if !released {
			a.t.Errorf("worker %d within sL was not released", w)
		}
	}
	return d
}

// TestPropertyBSPKeepsClocksWithinOne checks that BSP never lets any worker
// run more than one iteration ahead of any other.
func TestPropertyBSPKeepsClocksWithinOne(t *testing.T) {
	property := func(seed int64, nWorkers uint8) bool {
		n := int(nWorkers%6) + 2
		durations := randomDurations(seed, n, 10*time.Millisecond, 2*time.Second)
		drv := newReplayDriver(MustNewBSP(n), durations)
		if !drv.run(300) {
			return false
		}
		return drv.maxSpread <= 1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDSSPThroughputDominatesSSPLower checks that over identical
// wall-clock horizons DSSP never completes fewer total iterations than SSP
// pinned at its lower bound: DSSP only ever relaxes synchronization relative
// to SSP(sL).
func TestPropertyDSSPThroughputDominatesSSPLower(t *testing.T) {
	property := func(seed int64, nWorkers, lower, rng uint8) bool {
		n := int(nWorkers%5) + 2
		sl := int(lower % 5)
		r := int(rng%10) + 1
		durations := randomDurations(seed, n, 50*time.Millisecond, 4*time.Second)
		horizon := time.Unix(0, 0).Add(10 * time.Minute)

		total := func(p Policy) int {
			drv := newReplayDriver(p, durations)
			for drv.step() {
				if drv.now.After(horizon) {
					break
				}
			}
			sum := 0
			for w := 0; w < n; w++ {
				sum += p.Clock(WorkerID(w))
			}
			return sum
		}
		// Allow a tolerance of one iteration per worker for boundary effects
		// at the horizon cut-off.
		return total(MustNewDSSP(n, sl, r))+n >= total(MustNewSSP(n, sl))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEveryReleaseIsForAKnownWorker checks a basic sanity property of
// all policies: they only ever release worker IDs in range, never release the
// same worker twice in one decision, and never release a worker that has not
// pushed at least once.
func TestPropertyEveryReleaseIsForAKnownWorker(t *testing.T) {
	property := func(seed int64, nWorkers, staleness uint8) bool {
		n := int(nWorkers%6) + 2
		s := int(staleness % 6)
		durations := randomDurations(seed, n, 10*time.Millisecond, time.Second)
		policies := map[string]Policy{
			"BSP": MustNewBSP(n), "ASP": MustNewASP(n), "SSP": MustNewSSP(n, s), "DSSP": MustNewDSSP(n, s, s+2),
		}
		for label, p := range policies {
			pushed := make([]bool, n)
			drv := newReplayDriver(&releaseAuditor{Policy: p, label: label, pushed: pushed, t: t}, durations)
			if !drv.run(200) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// releaseAuditor wraps a Policy and verifies release-set sanity on each push.
type releaseAuditor struct {
	Policy
	label  string
	pushed []bool
	t      *testing.T
}

func (a *releaseAuditor) OnPush(w WorkerID, now time.Time) Decision {
	a.pushed[w] = true
	d := a.Policy.OnPush(w, now)
	seen := make(map[WorkerID]bool, len(d.Release))
	for _, id := range d.Release {
		if int(id) < 0 || int(id) >= len(a.pushed) {
			a.t.Errorf("%s released out-of-range worker %d", a.label, id)
		}
		if seen[id] {
			a.t.Errorf("%s released worker %d twice in one decision", a.label, id)
		}
		seen[id] = true
		if !a.pushed[id] {
			a.t.Errorf("%s released worker %d which never pushed", a.label, id)
		}
	}
	return d
}
