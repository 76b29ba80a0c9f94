package core

import (
	"fmt"
	"math"
	"time"
)

// DSSP is the one staleness-bound engine behind four of the paper's
// paradigms. Zhao et al. define DSSP as SSP whose threshold moves inside
// [sL, sL+rmax] and place the others on the same axis, so the family is this
// state machine and two numbers:
//
//	BSP   sL = 0,  rmax = 0   every worker waits for the slowest
//	ASP   sL = ∞,  rmax = 0   nobody is ever more than sL ahead
//	SSP   sL = s,  rmax = 0   the controller has nothing to grant
//	DSSP  sL,      rmax > 0   Algorithms 1 and 2
//
// NewBSP, NewASP, NewSSP and NewDSSP differ in those numbers and in the
// release rule for a blocked worker (below); there is no other Policy.
//
// The engine follows Algorithm 1 for the server rules and Algorithm 2 for
// the synchronization controller. The user supplies a lower staleness bound
// sL and a range length rmax = sU - sL. A worker within sL of the slowest
// worker is always released. When the currently fastest worker exceeds sL,
// the controller predicts, from recent push timestamps, how many extra
// iterations r* in [0, rmax] would minimize that worker's eventual wait, and
// grants them via a per-worker allowance r[p] that is consumed one unit per
// subsequent push.
//
// Three listing ambiguities in Algorithm 1 are resolved as follows.
//
// First, when the controller grants r* > 0 the OK sent at that moment is not
// counted against the allowance; the decrement happens on the worker's
// subsequent pushes (lines 3-5), matching the listing literally.
//
// Second, the listing never prevents the controller from being consulted
// again once a previous grant is used up, so a persistently fast worker can
// accumulate grants across consultations.
//
// Third, line 17 ("Wait until the slowest worker sends the next push
// request(s) so that tp−tslowest ≤ sL") is read, in NewDSSP's default mode,
// as "wait for the slowest worker's next push request": a blocked worker is
// released as soon as the slowest worker makes progress, even if its lead is
// still larger than sL. Together with repeated grants this is what lets a
// fast worker on a heterogeneous cluster run nearly unthrottled, which is
// the behaviour the paper measures (Table I, where DSSP tracks ASP rather
// than SSP). Calling EnforceUpperBound(true) switches both decisions to the
// strict, Theorem-2-compliant reading: grants are capped and a blocked
// worker waits until it is genuinely within sL of the slowest worker, so the
// iteration gap never exceeds sU = sL + rmax.
//
// SSP is the strict rule, always: Ho et al. release a worker only when it is
// within s of the slowest. The default reading above is a reading of DSSP's
// listing and is not SSP even at rmax = 0 — a worker that rejoins after
// pushing runs one bonus iteration and is then released two ahead — so
// NewBSP, NewSSP and NewASP construct the engine strict.
type DSSP struct {
	n     int
	sl    int
	ctl   *Controller
	clock *vectorClock
	// grants[p] is r_p of Algorithm 1: the number of extra iterations worker
	// p may still run beyond the lower bound sL.
	grants  []int
	waiting *waitSet
	// blockedAtMin[p] is the slowest worker's clock at the moment worker p
	// was blocked; in the default mode p is released once that clock
	// advances (the slowest worker "sends the next push request").
	blockedAtMin []int
	// enforceUpper caps grants so the clock gap stays within sU (Theorem 2).
	enforceUpper bool

	grantHistory []GrantEvent
	keepHistory  bool
}

// GrantEvent records one decision of the synchronization controller, used by
// experiments that analyze how the dynamic threshold evolves over time.
type GrantEvent struct {
	Worker WorkerID
	Time   time.Time
	// Extra is the r* granted by the controller (possibly zero).
	Extra int
	// Clock is the worker's push count at the moment of the grant.
	Clock int
}

// unbounded is ASP's lower staleness bound: no clock difference exceeds it.
const unbounded = math.MaxInt

// NewDSSP returns a DSSP policy for n workers with lower staleness bound
// sL >= 0 and range length rmax >= 0 (so the effective threshold stays within
// [sL, sL+rmax]).
func NewDSSP(n, sL, rmax int) (*DSSP, error) {
	if sL < 0 {
		return nil, fmt.Errorf("core: DSSP lower staleness bound must be >= 0, got %d", sL)
	}
	if rmax < 0 {
		return nil, fmt.Errorf("core: DSSP staleness range length must be >= 0, got %d", rmax)
	}
	return newEngine(n, sL, rmax, false)
}

// NewSSP returns Stale Synchronous Parallel with a fixed, user-specified
// staleness threshold s >= 0 (Ho et al., NeurIPS 2013) for n workers: a
// worker that has pushed is released as long as its iteration count is no
// more than s ahead of the slowest worker; otherwise it blocks until the
// slowest worker catches up. It is the engine at rmax = 0.
func NewSSP(n, s int) (*DSSP, error) {
	if s < 0 {
		return nil, fmt.Errorf("core: SSP staleness threshold must be >= 0, got %d", s)
	}
	return newEngine(n, s, 0, true)
}

// NewASP returns Asynchronous Parallel for n workers: a worker is released
// immediately after its push, fast workers may run arbitrarily far ahead of
// slow ones, and the staleness of applied gradients is unbounded. It is the
// engine at sL = ∞, rmax = 0.
func NewASP(n int) (*DSSP, error) {
	return newEngine(n, unbounded, 0, true)
}

// NewBSP returns Bulk Synchronous Parallel for n workers: a worker that has
// pushed waits until every active worker has pushed the same number of
// gradients, so all workers start each iteration from the same weights. It
// is SSP(0), the engine at sL = 0, rmax = 0: each active worker contributes
// exactly one gradient per round, and a worker that rejoins mid-round is
// counted from the slowest active clock, so its pre-departure push does not
// owe the round a second one.
func NewBSP(n int) (*DSSP, error) { return newEngine(n, 0, 0, true) }

func newEngine(n, sL, rmax int, strict bool) (*DSSP, error) {
	ctl, err := NewController(n, rmax)
	if err != nil {
		return nil, err
	}
	return &DSSP{
		n:            n,
		sl:           sL,
		ctl:          ctl,
		clock:        newVectorClock(n),
		grants:       make([]int, n),
		waiting:      newWaitSet(n),
		blockedAtMin: make([]int, n),
		enforceUpper: strict,
	}, nil
}

// MustNewDSSP is like NewDSSP but panics on invalid arguments.
func MustNewDSSP(n, sL, rmax int) *DSSP { return must(NewDSSP(n, sL, rmax)) }

// MustNewSSP is like NewSSP but panics on invalid arguments.
func MustNewSSP(n, s int) *DSSP { return must(NewSSP(n, s)) }

// MustNewASP is like NewASP but panics on an invalid worker count.
func MustNewASP(n int) *DSSP { return must(NewASP(n)) }

// MustNewBSP is like NewBSP but panics on an invalid worker count.
func MustNewBSP(n int) *DSSP { return must(NewBSP(n)) }

func must(p *DSSP, err error) *DSSP {
	if err != nil {
		panic(err)
	}
	return p
}

// RecordGrants enables keeping the history of controller decisions,
// retrievable through Grants. It is off by default to avoid unbounded memory
// growth in long training runs.
func (p *DSSP) RecordGrants(on bool) { p.keepHistory = on }

// EnforceUpperBound selects between the listing-faithful behaviour (false,
// NewDSSP's default: repeated grants may let a fast worker exceed sU) and the
// Theorem-2-compliant behaviour (true, and what NewBSP, NewSSP and NewASP
// construct: grants are capped so the iteration gap between any worker and
// the slowest never exceeds sU).
func (p *DSSP) EnforceUpperBound(on bool) { p.enforceUpper = on }

// Grants returns a copy of the recorded controller decisions.
func (p *DSSP) Grants() []GrantEvent {
	out := make([]GrantEvent, len(p.grantHistory))
	copy(out, p.grantHistory)
	return out
}

// OnPush implements Policy following the server side of Algorithm 1.
func (p *DSSP) OnPush(w WorkerID, now time.Time) Decision {
	if err := validateWorkerID(w, p.n); err != nil {
		panic(err)
	}
	p.clock.Join(w)
	p.clock.Tick(w)
	p.ctl.Observe(w, now)

	var release []WorkerID

	switch {
	case p.grants[w] > 0:
		// Lines 3-5: consume one unit of the allowance and release at once.
		p.grants[w]--
		release = append(release, w)

	case p.withinLowerBound(w):
		// Lines 8-9: within sL of the slowest worker.
		release = append(release, w)

	default:
		// Lines 10-17: only the currently fastest worker consults the
		// synchronization controller; everyone else waits for the slowest
		// worker to catch up.
		if fastest, _ := p.clock.Max(); fastest == w {
			extra := p.ctl.ExtraIterations(w, p.clock.Snapshot())
			if p.enforceUpper {
				_, slowest := p.clock.Min()
				headroom := p.UpperBound() - (p.clock.Count(w) - slowest)
				if headroom < 0 {
					headroom = 0
				}
				if extra > headroom {
					extra = headroom
				}
			}
			if p.keepHistory {
				p.grantHistory = append(p.grantHistory, GrantEvent{
					Worker: w, Time: now, Extra: extra, Clock: p.clock.Count(w),
				})
			}
			if extra > 0 {
				p.grants[w] = extra
				release = append(release, w)
			} else {
				p.block(w)
			}
		} else {
			p.block(w)
		}
	}

	// A push may have advanced the minimum clock: re-examine blocked workers
	// (line 17: they are released once they are back within sL).
	release = append(release, p.drainUnblocked(w)...)
	return Decision{Release: release}
}

// OnJoin implements Policy: the worker re-enters staleness accounting at the
// slowest active worker's clock, with no extra-iteration allowance.
func (p *DSSP) OnJoin(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.n); err != nil {
		panic(err)
	}
	if p.clock.Join(w) {
		p.grants[w] = 0
	}
	return Decision{}
}

// OnLeave implements Policy: the departed worker drops out of the minimum
// clock — a crashed slowest worker no longer holds everyone at the staleness
// bound — and any remaining allowance is forfeited.
func (p *DSSP) OnLeave(w WorkerID, _ time.Time) Decision {
	if err := validateWorkerID(w, p.n); err != nil {
		panic(err)
	}
	if !p.clock.Leave(w) {
		return Decision{}
	}
	p.grants[w] = 0
	p.waiting.Remove(w)
	if p.clock.NumActive() == 0 {
		return Decision{}
	}
	return Decision{Release: p.drainUnblocked(noWorker)}
}

// noWorker is a sentinel WorkerID that matches no real worker, used to drain
// the wait set without excluding anyone.
const noWorker = WorkerID(-1)

// block parks worker w until the release condition of line 17 holds.
func (p *DSSP) block(w WorkerID) {
	p.waiting.Add(w)
	_, slowest := p.clock.Min()
	p.blockedAtMin[w] = slowest
}

// withinLowerBound reports whether worker w is at most sL iterations ahead of
// the slowest worker.
func (p *DSSP) withinLowerBound(w WorkerID) bool {
	_, slowest := p.clock.Min()
	return p.clock.Count(w)-slowest <= p.sl
}

// mayRelease reports whether a blocked worker may resume: in the strict
// (Theorem-2) mode only once it is within sL of the slowest worker; in the
// default mode also as soon as the slowest worker has pushed again since the
// worker was blocked.
func (p *DSSP) mayRelease(w WorkerID) bool {
	if p.withinLowerBound(w) {
		return true
	}
	if p.enforceUpper {
		return false
	}
	_, slowest := p.clock.Min()
	return slowest > p.blockedAtMin[w]
}

// drainUnblocked releases every waiting worker whose release condition now
// holds. pushed is excluded because its membership was just decided.
func (p *DSSP) drainUnblocked(pushed WorkerID) []WorkerID {
	var release []WorkerID
	for _, id := range p.waiting.List() {
		if id == pushed {
			continue
		}
		if p.mayRelease(id) {
			p.waiting.Remove(id)
			release = append(release, id)
		}
	}
	return release
}

// Blocked implements Policy.
func (p *DSSP) Blocked() []WorkerID { return p.waiting.List() }

// Clock implements Policy.
func (p *DSSP) Clock(w WorkerID) int { return p.clock.Count(w) }

// NumWorkers implements Policy.
func (p *DSSP) NumWorkers() int { return p.n }

// StalenessBound implements Policy: sU = sL + rmax, and no bound at all for
// ASP. It is a hard guarantee only in the strict mode (EnforceUpperBound);
// in NewDSSP's default listing-faithful mode it is the nominal upper end of
// the threshold range, which repeated grants may transiently exceed.
func (p *DSSP) StalenessBound() (bound int, ok bool) {
	if p.sl == unbounded {
		return 0, false
	}
	return p.UpperBound(), true
}

// LowerBound returns sL (SSP's threshold s).
func (p *DSSP) LowerBound() int { return p.sl }

// UpperBound returns sU = sL + rmax.
func (p *DSSP) UpperBound() int { return p.sl + p.ctl.RMax() }

// Allowance returns the remaining extra-iteration allowance r_w of worker w.
func (p *DSSP) Allowance(w WorkerID) int { return p.grants[w] }
