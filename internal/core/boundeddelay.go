package core

import (
	"fmt"
	"time"
)

// BoundedDelay implements the bounded-delay scheme of Li et al.
// ("Communication efficient distributed machine learning with the parameter
// server", NeurIPS 2014) as described in the paper's related-work section:
// iterations are numbered globally across all workers and iteration t may
// only proceed once iteration t-k has completed, for a user-specified bound
// k. Iterations are pre-assigned to workers round-robin (worker w runs global
// iterations w, w+P, w+2P, ...), which is the example given in the paper, so
// the scheme behaves like an inflexible, pre-scheduled SSP.
type BoundedDelay struct {
	n int
	k int
	// next[w] is the global index (1-based) of the iteration worker w will
	// report with its next push.
	next []int
	// completed counts finished global iterations; a global iteration t is
	// considered complete once its push has been received.
	done    map[int]bool
	maxDone int
	clock   *vectorClock
	waiting *waitSet
}

// NewBoundedDelay returns a bounded-delay policy for n workers with bound
// k >= 1 (k consecutive global iterations may run concurrently).
func NewBoundedDelay(n, k int) (*BoundedDelay, error) {
	if err := validateWorkers(n); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("core: bounded-delay bound must be >= 1, got %d", k)
	}
	bd := &BoundedDelay{
		n:       n,
		k:       k,
		next:    make([]int, n),
		done:    make(map[int]bool),
		clock:   newVectorClock(n),
		waiting: newWaitSet(n),
	}
	for w := range bd.next {
		// Worker w's first global iteration is w+1 (1-based global indexing).
		bd.next[w] = w + 1
	}
	return bd, nil
}

// MustNewBoundedDelay is like NewBoundedDelay but panics on invalid
// arguments.
func MustNewBoundedDelay(n, k int) *BoundedDelay {
	p, err := NewBoundedDelay(n, k)
	if err != nil {
		panic(err)
	}
	return p
}

// OnPush implements Policy. Worker w's push completes its current global
// iteration; it may start its next assigned global iteration t only when
// iteration t-k has completed.
func (p *BoundedDelay) OnPush(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.n); err != nil {
		panic(err)
	}
	p.join(w)
	p.clock.Tick(w)

	completed := p.next[w]
	p.done[completed] = true
	p.advanceDone()
	p.next[w] = completed + p.n

	var release []WorkerID
	if p.mayStart(w) {
		release = append(release, w)
	} else {
		p.waiting.Add(w)
	}
	return Decision{Release: append(release, p.drainUnblocked(w)...)}
}

// OnJoin implements Policy: the worker resumes its round-robin schedule at
// the first global iteration assigned to it that has not completed (or been
// skipped while it was away).
func (p *BoundedDelay) OnJoin(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.n); err != nil {
		panic(err)
	}
	p.join(w)
	return Decision{}
}

// join reactivates a departed worker and repositions it on the global
// iteration schedule.
func (p *BoundedDelay) join(w WorkerID) {
	if !p.clock.Join(w) {
		return
	}
	t := p.maxDone + 1
	for p.done[t] || WorkerID((t-1)%p.n) != w {
		t++
	}
	p.next[w] = t
}

// OnLeave implements Policy. Iterations are pre-assigned round-robin, so a
// departed worker leaves holes in the global schedule that every later
// iteration transitively depends on; those holes are skipped as they become
// the completion frontier, which may unblock workers waiting on the
// dependency bound.
func (p *BoundedDelay) OnLeave(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.n); err != nil {
		panic(err)
	}
	if !p.clock.Leave(w) {
		return Decision{}
	}
	p.waiting.Remove(w)
	p.advanceDone()
	return Decision{Release: p.drainUnblocked(noWorker)}
}

// advanceDone advances the contiguous completion frontier, treating
// iterations assigned to departed workers as vacuously complete — they can
// never be pushed, and leaving them pending would stall the whole schedule.
func (p *BoundedDelay) advanceDone() {
	for {
		t := p.maxDone + 1
		if p.done[t] {
			p.maxDone = t
			continue
		}
		if p.clock.NumActive() > 0 && !p.clock.IsActive(WorkerID((t-1)%p.n)) {
			p.done[t] = true
			p.maxDone = t
			continue
		}
		return
	}
}

// drainUnblocked releases every waiting worker whose dependency constraint
// now holds, excluding pushed (whose membership was decided by the caller).
func (p *BoundedDelay) drainUnblocked(pushed WorkerID) []WorkerID {
	var release []WorkerID
	for _, id := range p.waiting.List() {
		if id == pushed {
			continue
		}
		if p.mayStart(id) {
			p.waiting.Remove(id)
			release = append(release, id)
		}
	}
	return release
}

// mayStart reports whether worker w's next global iteration satisfies the
// dependency constraint: iteration t depends on iteration t-k, and because
// results flow forward through the shared parameters, t-k is considered
// available only once every iteration up to t-k has completed (maxDone
// tracks that contiguous prefix).
func (p *BoundedDelay) mayStart(w WorkerID) bool {
	t := p.next[w]
	dep := t - p.k
	if dep <= 0 {
		return true
	}
	return dep <= p.maxDone
}

// StalenessBound implements Policy: with global iterations assigned
// round-robin, a gap of k global iterations bounds the per-worker clock
// spread by k.
func (p *BoundedDelay) StalenessBound() (bound int, ok bool) { return p.k, true }

// Blocked implements Policy.
func (p *BoundedDelay) Blocked() []WorkerID { return p.waiting.List() }

// Clock implements Policy.
func (p *BoundedDelay) Clock(w WorkerID) int { return p.clock.Count(w) }

// NumWorkers implements Policy.
func (p *BoundedDelay) NumWorkers() int { return p.n }
