package simulate

import (
	"fmt"
	"time"

	"dssp/internal/core"
)

// EventKind identifies one kind of scheduled mid-run perturbation.
type EventKind int

const (
	// EventCrash stops the worker: its in-flight push or pull is lost and
	// the policy is told it left. The worker's remaining iteration budget
	// is preserved so a later EventRejoin can resume it. A crash scheduled
	// after the worker already finished is ignored.
	EventCrash EventKind = iota + 1
	// EventRejoin brings a previously crashed worker back: the policy is
	// told it joined, it pulls fresh weights and resumes its remaining
	// iterations. A rejoin for a live worker is ignored.
	EventRejoin
	// EventDelayShift multiplies the worker's compute time by Factor from
	// this point on (2 = half speed, 0.5 = twice as fast) — a GPU being
	// throttled or recovering mid-run.
	EventDelayShift
	// EventAdversary switches the worker's adversary behaviour to
	// Adversary (AdversaryNone reforms it) — a compromised worker turning
	// hostile mid-run, or an attack burst ending.
	EventAdversary
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventCrash:
		return "crash"
	case EventRejoin:
		return "rejoin"
	case EventDelayShift:
		return "delay-shift"
	case EventAdversary:
		return "adversary"
	default:
		return "unknown"
	}
}

// Event is one scheduled perturbation of a simulated run. The zero Kind is
// invalid; construct events with explicit kinds (or via the Crash/Rejoin
// helpers).
type Event struct {
	// At is the elapsed simulated time the event fires.
	At time.Duration
	// Worker is the worker the event applies to.
	Worker int
	// Kind selects the perturbation.
	Kind EventKind
	// Factor is the compute-time multiplier for EventDelayShift (must be
	// positive); ignored otherwise.
	Factor float64
	// Adversary is the behaviour installed by EventAdversary; ignored
	// otherwise.
	Adversary AdversaryKind
}

// Crash returns an EventCrash for worker w at time at.
func Crash(w int, at time.Duration) Event {
	return Event{At: at, Worker: w, Kind: EventCrash}
}

// Rejoin returns an EventRejoin for worker w at time at.
func Rejoin(w int, at time.Duration) Event {
	return Event{At: at, Worker: w, Kind: EventRejoin}
}

// validate checks one event against the cluster size.
func (e Event) validate(workers int) error {
	if e.Worker < 0 || e.Worker >= workers {
		return fmt.Errorf("simulate: event names worker %d outside [0,%d)", e.Worker, workers)
	}
	switch e.Kind {
	case EventCrash, EventRejoin, EventAdversary:
	case EventDelayShift:
		if e.Factor <= 0 {
			return fmt.Errorf("simulate: delay-shift for worker %d needs a positive factor, got %g", e.Worker, e.Factor)
		}
	default:
		return fmt.Errorf("simulate: event for worker %d has unknown kind %d", e.Worker, int(e.Kind))
	}
	return nil
}

// AdversaryKind is a clock-level Byzantine behaviour a simulated worker can
// exhibit. Gradient-value attacks (scaling, sign flips) are the real
// trainer's domain; the simulator models the attacks visible in the
// push/pull event stream, the ones core.ClockMonitor detects.
type AdversaryKind int

const (
	// AdversaryNone is honest behaviour.
	AdversaryNone AdversaryKind = iota
	// AdversaryLyingClock pushes with a claimed base version the server
	// never produced, to appear fresher than possible.
	AdversaryLyingClock
	// AdversaryPushFlood pushes floodBurst copies of every gradient
	// without pulling in between, to dominate aggregation windows.
	AdversaryPushFlood
)

// floodBurst is how many pushes an AdversaryPushFlood worker emits per
// compute phase — comfortably above core.DefaultFloodSlack so a guard with
// default settings flags it.
const floodBurst = core.DefaultFloodSlack + 2

// lieAhead is how far past the server's version a lying clock claims.
const lieAhead = 1 << 20

// String names the adversary.
func (a AdversaryKind) String() string {
	switch a {
	case AdversaryNone:
		return "none"
	case AdversaryLyingClock:
		return "lying-clock"
	case AdversaryPushFlood:
		return "push-flood"
	default:
		return "unknown"
	}
}

// GuardSpec enables the simulated server's anomaly guard, the
// ClockMonitor-backed counterpart of the real server's GuardConfig with the
// same thresholds: flagged pushes are dropped (the policy still releases
// workers) and a worker reaching core.DefaultMaxStrikes flags is evicted like
// a crash.
type GuardSpec struct {
	// Enabled turns the guard on.
	Enabled bool
}
