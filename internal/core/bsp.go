package core

import (
	"fmt"
	"time"
)

// BSP implements Bulk Synchronous Parallel: every worker pushes its gradient
// and then waits at a barrier; once all workers of the current superstep have
// pushed, the server updates the global weights and releases everyone
// simultaneously. All workers therefore always start an iteration from the
// same version of the global weights.
type BSP struct {
	n       int
	clock   *vectorClock
	waiting *waitSet
	round   int // completed barrier rounds
}

// NewBSP returns a BSP policy coordinating n workers.
func NewBSP(n int) (*BSP, error) {
	if err := validateWorkers(n); err != nil {
		return nil, err
	}
	return &BSP{n: n, clock: newVectorClock(n), waiting: newWaitSet(n)}, nil
}

// MustNewBSP is like NewBSP but panics on an invalid worker count.
// It is intended for tests and examples with constant arguments.
func MustNewBSP(n int) *BSP {
	p, err := NewBSP(n)
	if err != nil {
		panic(err)
	}
	return p
}

// OnPush implements Policy. The pushing worker joins the barrier; when it is
// the last active worker of the round, all active workers are released.
func (p *BSP) OnPush(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.n); err != nil {
		panic(err)
	}
	p.clock.Join(w)
	p.clock.Tick(w)
	p.waiting.Add(w)
	return Decision{Release: p.completeBarrier()}
}

// OnJoin implements Policy: the worker joins the barrier population, so the
// current round now needs its push too.
func (p *BSP) OnJoin(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.n); err != nil {
		panic(err)
	}
	p.clock.Join(w)
	return Decision{}
}

// OnLeave implements Policy: the worker drops out of the barrier population.
// If every remaining active worker has already pushed, its departure
// completes the round — without this, one crashed worker blocks the barrier
// forever.
func (p *BSP) OnLeave(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.n); err != nil {
		panic(err)
	}
	if !p.clock.Leave(w) {
		return Decision{}
	}
	p.waiting.Remove(w)
	return Decision{Release: p.completeBarrier()}
}

// completeBarrier releases every active worker and advances the round when
// all active workers are waiting, and returns nil otherwise.
func (p *BSP) completeBarrier() []WorkerID {
	active := p.clock.NumActive()
	if active == 0 || p.waiting.Len() != active {
		return nil
	}
	release := p.clock.ActiveList()
	for _, id := range release {
		p.waiting.Remove(id)
	}
	p.round++
	return release
}

// Blocked implements Policy.
func (p *BSP) Blocked() []WorkerID { return p.waiting.List() }

// Clock implements Policy.
func (p *BSP) Clock(w WorkerID) int { return p.clock.Count(w) }

// NumWorkers implements Policy.
func (p *BSP) NumWorkers() int { return p.n }

// Rounds returns the number of completed barrier rounds (supersteps).
func (p *BSP) Rounds() int { return p.round }

// StalenessBound implements Policy: a barrier keeps every worker in the same
// round. BSP is still its own type and not SSP(0): the two release different
// workers once membership changes (TestBSPIsNotSSPZero).
func (p *BSP) StalenessBound() (bound int, ok bool) { return 0, true }

// Name implements Policy.
func (p *BSP) Name() string { return fmt.Sprintf("BSP(workers=%d)", p.n) }
