package core

// vectorClock tracks the number of push requests received from each worker
// together with the worker's membership status. It is the server-side view of
// worker progress used by SSP and DSSP (array t in Algorithm 1 of the paper),
// extended so that departed workers drop out of the min/max aggregates: a
// crashed worker's frozen clock must not pin the minimum forever, or every
// staleness-bounded paradigm deadlocks on the first failure.
type vectorClock struct {
	counts  []int
	gone    []bool
	nActive int
}

// newVectorClock returns a clock for n workers with all counts at zero and
// every worker active.
func newVectorClock(n int) *vectorClock {
	return &vectorClock{counts: make([]int, n), gone: make([]bool, n), nActive: n}
}

// Tick increments worker w's count and returns the new value.
func (c *vectorClock) Tick(w WorkerID) int {
	c.counts[w]++
	return c.counts[w]
}

// Count returns worker w's current count.
func (c *vectorClock) Count(w WorkerID) int { return c.counts[w] }

// NumActive returns the number of active workers.
func (c *vectorClock) NumActive() int { return c.nActive }

// Leave marks worker w as departed, removing it from the Min/Max aggregates.
// It reports whether the worker was active.
func (c *vectorClock) Leave(w WorkerID) bool {
	if c.gone[w] {
		return false
	}
	c.gone[w] = true
	c.nActive--
	return true
}

// Join marks worker w as active again and reports whether it was departed.
// The worker's count is raised to the current active minimum: a rejoining
// worker pulls fresh weights before its first push, so its progress is
// measured from the cohort it joins, not from where it crashed.
func (c *vectorClock) Join(w WorkerID) bool {
	if !c.gone[w] {
		return false
	}
	if c.nActive > 0 {
		if _, minC := c.Min(); c.counts[w] < minC {
			c.counts[w] = minC
		}
	}
	c.gone[w] = false
	c.nActive++
	return true
}

// Min returns the smallest count across active workers and one worker holding
// it. With no active workers it falls back to the all-worker minimum.
func (c *vectorClock) Min() (WorkerID, int) {
	minW, minC, found := WorkerID(0), 0, false
	for i := range c.counts {
		if c.gone[i] && c.nActive > 0 {
			continue
		}
		if !found || c.counts[i] < minC {
			minW, minC, found = WorkerID(i), c.counts[i], true
		}
	}
	return minW, minC
}

// Max returns the largest count across active workers and one worker holding
// it. With no active workers it falls back to the all-worker maximum.
func (c *vectorClock) Max() (WorkerID, int) {
	maxW, maxC, found := WorkerID(0), 0, false
	for i := range c.counts {
		if c.gone[i] && c.nActive > 0 {
			continue
		}
		if !found || c.counts[i] > maxC {
			maxW, maxC, found = WorkerID(i), c.counts[i], true
		}
	}
	return maxW, maxC
}

// Snapshot returns a copy of the per-worker counts.
func (c *vectorClock) Snapshot() []int {
	out := make([]int, len(c.counts))
	copy(out, c.counts)
	return out
}

// waitSet tracks which workers are currently blocked waiting for OK.
type waitSet struct {
	blocked []bool
}

// newWaitSet returns an empty wait set for n workers.
func newWaitSet(n int) *waitSet {
	return &waitSet{blocked: make([]bool, n)}
}

// Add marks worker w as blocked.
func (s *waitSet) Add(w WorkerID) { s.blocked[w] = true }

// Remove marks worker w as released.
func (s *waitSet) Remove(w WorkerID) { s.blocked[w] = false }

// List returns the blocked workers in ascending order.
func (s *waitSet) List() []WorkerID {
	var out []WorkerID
	for i, b := range s.blocked {
		if b {
			out = append(out, WorkerID(i))
		}
	}
	return out
}
