package core

import (
	"fmt"
	"time"
)

// BackupBSP implements the backup-worker variant of synchronous SGD proposed
// by Chen et al. ("Revisiting distributed synchronous SGD", 2016) and
// discussed in the paper's related work: the cluster runs N+c workers but the
// server aggregates only the first N updates of every round; the c straggler
// updates that arrive afterwards are dropped, and all workers start the next
// round together as soon as the N-th update of the round arrives.
type BackupBSP struct {
	total   int // N + c
	needed  int // N
	clock   *vectorClock
	waiting *waitSet
	round   int
	// arrivedInRound counts pushes whose gradient belongs to the current
	// round; pushes belonging to an earlier round are dropped.
	arrivedInRound int
	// workerRound[w] is the round the worker's next push belongs to.
	workerRound []int
	dropped     int
}

// NewBackupBSP returns a backup-worker BSP policy with total workers and
// backups spare workers (so the server waits for total-backups updates per
// round).
func NewBackupBSP(total, backups int) (*BackupBSP, error) {
	if err := validateWorkers(total); err != nil {
		return nil, err
	}
	if backups < 0 || backups >= total {
		return nil, fmt.Errorf("core: backups must be in [0,%d), got %d", total, backups)
	}
	return &BackupBSP{
		total:       total,
		needed:      total - backups,
		clock:       newVectorClock(total),
		waiting:     newWaitSet(total),
		workerRound: make([]int, total),
	}, nil
}

// MustNewBackupBSP is like NewBackupBSP but panics on invalid arguments.
func MustNewBackupBSP(total, backups int) *BackupBSP {
	p, err := NewBackupBSP(total, backups)
	if err != nil {
		panic(err)
	}
	return p
}

// OnPush implements Policy.
func (p *BackupBSP) OnPush(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.total); err != nil {
		panic(err)
	}
	p.join(w)
	p.clock.Tick(w)

	if p.workerRound[w] < p.round {
		// A straggler from a previous round: its gradient is dropped and the
		// worker immediately moves on to the current round.
		p.workerRound[w] = p.round
		p.dropped++
		return Decision{Release: []WorkerID{w}, Drop: true}
	}

	p.arrivedInRound++
	p.workerRound[w] = p.round + 1
	if p.arrivedInRound >= p.effectiveNeeded() {
		// Round complete: release every worker that was waiting plus the
		// pusher; stragglers will be dropped when they eventually push.
		release := append(p.waiting.List(), w)
		for _, id := range release {
			p.waiting.Remove(id)
		}
		p.round++
		p.arrivedInRound = 0
		return Decision{Release: release}
	}
	p.waiting.Add(w)
	return Decision{}
}

// OnJoin implements Policy: the worker participates from the current round
// on, so its next push counts toward the round instead of being dropped as a
// straggler.
func (p *BackupBSP) OnJoin(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.total); err != nil {
		panic(err)
	}
	p.join(w)
	return Decision{}
}

// join reactivates a departed worker in the current round.
func (p *BackupBSP) join(w WorkerID) {
	if !p.clock.Join(w) {
		return
	}
	if p.workerRound[w] < p.round {
		p.workerRound[w] = p.round
	}
}

// OnLeave implements Policy. A departure shrinks the pool the round draws
// from: the quorum becomes min(N, active), and if the remaining waiters
// already meet it the round completes — otherwise a crash of a non-backup
// worker would stall the round forever.
func (p *BackupBSP) OnLeave(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.total); err != nil {
		panic(err)
	}
	if !p.clock.Leave(w) {
		return Decision{}
	}
	p.waiting.Remove(w)
	needed := p.effectiveNeeded()
	if needed > 0 && p.arrivedInRound >= needed {
		release := p.waiting.List()
		for _, id := range release {
			p.waiting.Remove(id)
		}
		p.round++
		p.arrivedInRound = 0
		return Decision{Release: release}
	}
	return Decision{}
}

// effectiveNeeded returns the per-round quorum: the configured N capped at
// the number of active workers.
func (p *BackupBSP) effectiveNeeded() int {
	if a := p.clock.NumActive(); a < p.needed {
		return a
	}
	return p.needed
}

// StalenessBound implements Policy: like BSP, every aggregated update is
// based on the weights of the previous round.
func (p *BackupBSP) StalenessBound() (bound int, ok bool) { return 0, true }

// Blocked implements Policy.
func (p *BackupBSP) Blocked() []WorkerID { return p.waiting.List() }

// Clock implements Policy.
func (p *BackupBSP) Clock(w WorkerID) int { return p.clock.Count(w) }

// NumWorkers implements Policy.
func (p *BackupBSP) NumWorkers() int { return p.total }

// Dropped returns the number of straggler updates dropped so far.
func (p *BackupBSP) Dropped() int { return p.dropped }

// Rounds returns the number of completed aggregation rounds.
func (p *BackupBSP) Rounds() int { return p.round }
