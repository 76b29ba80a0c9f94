package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceConfig configures the push-lifecycle tracer. Every selects 1-in-N
// sampling (<= 0 disables tracing, 1 traces every push).
type TraceConfig struct {
	Every int
}

// DefaultTraceCapacity is the size of the completed-trace ring: the newest
// this many traces are kept.
const DefaultTraceCapacity = 256

// PushTrace is one sampled push's lifecycle: wall-clock stamps at each
// pipeline stage, from the moment the push message is picked up to the
// moment its release is sent. Zero timestamps mean the push never reached
// (or skipped) that stage — a dropped push, for example, has no apply or
// release stamps.
type PushTrace struct {
	// Worker and Iteration identify the push; Ticket is the apply ticket
	// the store assigned (0 when the push was dropped before ticketing).
	Worker    int   `json:"worker"`
	Iteration int   `json:"iteration"`
	Ticket    int64 `json:"ticket,omitempty"`
	// Base is the parameter version the gradient was computed against;
	// Staleness the policy-observed staleness at apply time.
	Base      int64 `json:"base_version"`
	Staleness int   `json:"staleness"`
	// Coalesced is how many pushes the store applied in the same batch as
	// this one (1 = applied alone).
	Coalesced int `json:"coalesced,omitempty"`
	// Dropped names why the push left the pipeline early ("guard",
	// "superseded", "error"), empty for applied pushes.
	Dropped string `json:"dropped,omitempty"`

	ReceivedAt time.Time `json:"received_at"`
	ScreenedAt time.Time `json:"screened_at,omitempty"` // after guard screening
	EnqueuedAt time.Time `json:"enqueued_at,omitempty"` // ticket assigned, batch enqueued
	AppliedAt  time.Time `json:"applied_at,omitempty"`  // shard applier finished its batch
	ReleasedAt time.Time `json:"released_at,omitempty"` // release sent to the worker
}

// PushTracer samples pushes and records their lifecycle. All methods are
// safe for concurrent use and nil-safe on a nil receiver, so call sites
// need no gating. The fast path for unsampled pushes is one atomic add;
// the applier-side stamp is one atomic load when nothing is in flight.
type PushTracer struct {
	every uint64

	n        atomic.Uint64
	inFlight atomic.Int64

	mu      sync.Mutex
	pending map[int64]*PushTrace // keyed by ticket
	ring    []PushTrace          // completed traces, oldest overwritten
	next    int
	total   uint64
}

// NewPushTracer returns a tracer for the given config, or nil when
// tracing is disabled (Every <= 0) — the nil tracer costs nothing.
func NewPushTracer(cfg TraceConfig) *PushTracer {
	if cfg.Every <= 0 {
		return nil
	}
	return &PushTracer{
		every:   uint64(cfg.Every),
		pending: make(map[int64]*PushTrace),
		ring:    make([]PushTrace, 0, DefaultTraceCapacity),
	}
}

// Sample decides whether this push is traced. It returns a trace with
// ReceivedAt stamped, or nil (the common case). The caller fills in
// identity fields and hands the trace back via Track or Abandon.
func (t *PushTracer) Sample(worker, iteration int) *PushTrace {
	if t == nil {
		return nil
	}
	if t.n.Add(1)%t.every != 0 {
		return nil
	}
	return &PushTrace{Worker: worker, Iteration: iteration, ReceivedAt: time.Now()}
}

// Track registers a ticketed trace so the store's applier and the release
// sequencer can stamp it by ticket.
func (t *PushTracer) Track(tr *PushTrace) {
	if t == nil || tr == nil {
		return
	}
	t.mu.Lock()
	t.pending[tr.Ticket] = tr
	t.mu.Unlock()
	t.inFlight.Add(1)
}

// Abandon finalizes a trace that left the pipeline before ticketing
// (rejected by the guard, superseded or failed), recording why.
func (t *PushTracer) Abandon(tr *PushTrace, reason string) {
	if t == nil || tr == nil {
		return
	}
	tr.Dropped = reason
	t.mu.Lock()
	t.commitLocked(*tr)
	t.mu.Unlock()
}

// Applied stamps every tracked trace whose ticket lies in (from, to]: the
// shard applier just applied a batch of `batch` coalesced pushes covering
// that ticket range.
func (t *PushTracer) Applied(from, to int64, batch int, now time.Time) {
	if t == nil || t.inFlight.Load() == 0 {
		return
	}
	t.mu.Lock()
	for ticket, tr := range t.pending {
		if ticket > from && ticket <= to && tr.AppliedAt.IsZero() {
			tr.AppliedAt = now
			tr.Coalesced = batch
		}
	}
	t.mu.Unlock()
}

// Released finalizes the tracked trace for ticket, if any, moving it into
// the completed ring.
func (t *PushTracer) Released(ticket int64, now time.Time) {
	if t == nil || t.inFlight.Load() == 0 {
		return
	}
	t.mu.Lock()
	tr, ok := t.pending[ticket]
	if ok {
		delete(t.pending, ticket)
		if tr.AppliedAt.IsZero() {
			// The appliers finished the ticket before the push handler got
			// to Track it (the ticket only exists once the push is already
			// queued), so no Applied call found the trace. It was applied no
			// later than this release, which is gated on exactly that.
			tr.AppliedAt = now
		}
		tr.ReleasedAt = now
		t.commitLocked(*tr)
	}
	t.mu.Unlock()
	if ok {
		t.inFlight.Add(-1)
	}
}

// commitLocked appends a finished trace to the ring (caller holds t.mu).
func (t *PushTracer) commitLocked(tr PushTrace) {
	t.total++
	if len(t.ring) < DefaultTraceCapacity {
		t.ring = append(t.ring, tr)
		return
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % DefaultTraceCapacity
}

// Traces returns the completed traces, oldest first. Nil-safe.
func (t *PushTracer) Traces() []PushTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PushTrace, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Total reports how many traces completed over the tracer's lifetime
// (including ones the ring has since overwritten). Nil-safe.
func (t *PushTracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
