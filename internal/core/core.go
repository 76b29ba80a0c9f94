// Package core implements the synchronization paradigms studied in
// "Dynamic Stale Synchronous Parallel Distributed Training for Deep Learning"
// (Zhao et al., ICDCS 2019): Bulk Synchronous Parallel (BSP), Asynchronous
// Parallel (ASP), Stale Synchronous Parallel (SSP) and the paper's
// contribution, Dynamic Stale Synchronous Parallel (DSSP). The four are one
// staleness-bound engine at different thresholds (dssp.go): BSP is SSP(0)
// and ASP is SSP(∞).
//
// Every paradigm is expressed as a Policy: a pure, single-goroutine state
// machine that is told about push requests (with an explicit timestamp) and
// answers which workers the parameter server may release. Policies never read
// the wall clock themselves, so exactly the same implementations drive the
// real parameter server (internal/ps) and the event-driven cluster simulator
// (internal/simulate).
//
// Membership semantics. Every policy coordinates a fixed capacity of worker
// slots [0, NumWorkers), but the set of slots that currently participate in
// synchronization is dynamic: OnLeave removes a worker from barrier and
// staleness accounting (a crashed or drained worker must never block its
// peers), OnJoin adds it back. A worker that pushes while marked inactive is
// implicitly rejoined — a push is the strongest possible proof of
// participation — so policies stay self-consistent even if a join
// notification is lost.
//
// Rejoining resets the worker's progress accounting to the slowest active
// worker's clock: a rejoining worker pulls fresh weights before computing
// (Algorithm 1), so its first gradient is no staler than anyone else's and
// must not drag the minimum clock down to its pre-crash value. A clock is
// raised, never lowered, so under BSP a worker that pushed, left and
// rejoined inside one round has already contributed that round's gradient:
// each active worker contributes exactly one per round.
package core

import (
	"fmt"
	"time"
)

// WorkerID identifies a worker participating in distributed training.
// Workers are numbered 0..NumWorkers-1.
type WorkerID int

// Decision is the outcome of notifying a Policy about a push request.
type Decision struct {
	// Release lists the workers that may now be sent the OK signal and
	// proceed to pull fresh weights and start their next iteration. The
	// pushing worker may or may not be included; when it is absent it stays
	// blocked until a later push releases it.
	Release []WorkerID
}

// Policy is a synchronization paradigm for the parameter-server framework.
//
// Implementations are not safe for concurrent use; the parameter server and
// the simulator serialize calls.
type Policy interface {
	// OnPush records that worker w delivered the gradient of its next
	// iteration at time now and returns the release decision. Each call
	// advances w's logical clock by one. A push from a worker previously
	// reported departed implicitly rejoins it (see OnJoin).
	OnPush(w WorkerID, now time.Time) Decision

	// OnJoin records that worker w (re)joined the computation at time now.
	// Joining an already-active worker is a no-op. A rejoining worker's
	// progress accounting restarts at the slowest active worker's clock; its
	// push count history is otherwise preserved.
	OnJoin(w WorkerID, now time.Time) Decision

	// OnLeave records that worker w left the computation at time now —
	// crashed, was evicted by a lease timeout, or deregistered gracefully.
	// The worker is removed from barrier and staleness accounting, and the
	// decision lists any peers whose release condition its departure
	// satisfied (a shrunken BSP barrier may complete, an SSP minimum may
	// advance). Leaving an already-departed worker is a no-op.
	OnLeave(w WorkerID, now time.Time) Decision

	// Blocked returns the workers currently waiting for an OK signal, in
	// ascending order. It is a read-only view used by tests and metrics.
	Blocked() []WorkerID

	// Clock returns the number of pushes received from worker w so far.
	Clock(w WorkerID) int

	// NumWorkers returns the number of workers the policy coordinates.
	NumWorkers() int

	// StalenessBound returns the maximum permitted difference between any two
	// workers' iteration counts; ok is false for a paradigm that guarantees
	// none (ASP).
	StalenessBound() (bound int, ok bool)
}

// validateWorkers reports an error when n is not a usable worker count.
func validateWorkers(n int) error {
	if n <= 0 {
		return fmt.Errorf("core: number of workers must be positive, got %d", n)
	}
	return nil
}

// validateWorkerID reports an error when w is outside [0, n).
func validateWorkerID(w WorkerID, n int) error {
	if int(w) < 0 || int(w) >= n {
		return fmt.Errorf("core: worker id %d out of range [0,%d)", w, n)
	}
	return nil
}
