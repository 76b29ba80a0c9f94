package ps

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// This file holds the root's half of the aggregation-relay tier (DESIGN.md
// §11): the tree layout workers fetch to find their relay, and the trunk
// message handlers — child joins, summed pushes, child departures, and the
// cascade a dying trunk triggers.
//
// The tier exists to cut root ingress from O(workers) to O(fanout): a relay
// coordinate-wise sums the pushes of up to fanout children into one windowed
// partial and forwards a single ×k-weighted push whose PushEntries carry the
// children's clock metadata, so the policy layer still sees every logical
// push — OnPush runs once per child, the version advances by k, and serial
// schedules stay bit-identical to the flat topology.

// treeRelay is one registered relay: its trunk session, the child-facing
// address it advertises, its configured fanout, and the worker-index ranges
// [lo, hi) the layout assigns it.
type treeRelay struct {
	sess   *session
	addr   string
	fanout int
	ranges [][2]int
}

// treeState is the advertised aggregation-tree layout. It is advisory — the
// routes map follows the joins workers actually perform — but it is the
// single document workers consult to pick a parent, so assignment here is
// what makes re-parenting after a relay death deterministic: a dead relay's
// ranges transfer to the first surviving relay (its children re-parent at a
// sibling), or, with no survivors, vanish (they re-parent at the root).
type treeState struct {
	mu      sync.Mutex
	relays  []*treeRelay
	version int64
}

// add assigns the new relay the lowest worker indices not covered by any
// existing relay, up to its fanout, as contiguous runs.
func (t *treeState) add(sess *session, addr string, fanout, workers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]bool, workers)
	for _, r := range t.relays {
		for _, rg := range r.ranges {
			for w := rg[0]; w < rg[1] && w < workers; w++ {
				covered[w] = true
			}
		}
	}
	rel := &treeRelay{sess: sess, addr: addr, fanout: fanout}
	assigned, start, end := 0, -1, 0
	for w := 0; w < workers && assigned < fanout; w++ {
		if covered[w] {
			if start >= 0 {
				rel.ranges = append(rel.ranges, [2]int{start, w})
				start = -1
			}
			continue
		}
		if start < 0 {
			start = w
		}
		assigned++
		end = w + 1
	}
	if start >= 0 {
		rel.ranges = append(rel.ranges, [2]int{start, end})
	}
	t.relays = append(t.relays, rel)
	t.version++
}

// remove drops a dead relay from the layout, transferring its ranges to the
// first survivor so its children have a deterministic new parent.
func (t *treeState) remove(sess *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range t.relays {
		if r.sess != sess {
			continue
		}
		t.relays = append(t.relays[:i], t.relays[i+1:]...)
		if len(t.relays) > 0 {
			t.relays[0].ranges = append(t.relays[0].ranges, r.ranges...)
		}
		t.version++
		return
	}
}

// snapshot flattens the layout into wire entries — Addr is the relay's
// child-facing address, ShardLo/ShardHi the worker-index range [lo, hi) it
// covers (the fields are reused; a tree-layout reply never describes store
// shards) — sorted by range start.
func (t *treeState) snapshot() ([]transport.ServerEntry, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var entries []transport.ServerEntry
	for _, r := range t.relays {
		for _, rg := range r.ranges {
			entries = append(entries, transport.ServerEntry{Addr: r.addr, ShardLo: rg[0], ShardHi: rg[1]})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ShardLo < entries[j].ShardLo })
	return entries, t.version
}

// relayAdmissible screens a trunk registration against configurations whose
// per-push machinery cannot attribute a pre-summed partial to individual
// workers.
func (s *Server) relayAdmissible(msg transport.Message) error {
	if s.cfg.Cluster.Coordinator {
		return fmt.Errorf("relay tier runs against data-carrying servers, not a cluster coordinator")
	}
	if s.guard != nil {
		return fmt.Errorf("anomaly guard screens individual gradients and cannot attribute a summed partial; disable the guard or the relay tier")
	}
	if s.cfg.Aggregator.Kind != AggSum {
		return fmt.Errorf("aggregator %q needs individual gradients; the relay tier pre-sums, so only %q composes with it",
			s.cfg.Aggregator.Kind, AggSum)
	}
	if len(msg.Servers) != 1 || msg.Servers[0].Addr == "" {
		return fmt.Errorf("relay registration must advertise exactly one child-facing address")
	}
	if msg.Servers[0].ShardHi < 1 {
		return fmt.Errorf("relay registration must advertise a positive fanout, got %d", msg.Servers[0].ShardHi)
	}
	return nil
}

// handleChildJoin admits a worker registering through a relay trunk. The
// worker gets no session of its own — the trunk carries it — but enters
// joined/policy/window accounting exactly as a direct registration would,
// and any direct session the slot held is superseded (the worker re-parented
// under the relay).
func (s *Server) handleChildJoin(trunk *session, msg transport.Message) {
	w := msg.Worker
	if w < 0 || w >= s.cfg.Workers {
		s.enqueueSession(trunk, transport.Message{
			Type:   transport.MsgError,
			Worker: w,
			Error:  fmt.Sprintf("worker id %d out of range [0,%d)", w, s.cfg.Workers),
		})
		return
	}
	requested := compress.Config{Codec: msg.Codec, TopK: msg.CodecTopK, Pull: msg.CodecPull}.Normalized()
	if requested.Codec != compress.Auto && !requested.Equal(s.compression) {
		s.enqueueSession(trunk, transport.Message{
			Type:   transport.MsgError,
			Worker: w,
			Error: fmt.Sprintf("compression mismatch: worker %d registered with codec %s, server speaks %s",
				w, requested, s.compression),
		})
		return
	}
	rejoined := msg.Type == transport.MsgRejoin
	old := s.sessions.get(w)
	s.mu.Lock()
	s.joined[w] = true
	s.routes[w] = trunk
	s.mu.Unlock()
	if old != nil {
		// The slot held a direct session (a zombie connection, or a worker
		// that re-parented before its old link died). Drop it first so the old
		// connection goroutine's leave() no-ops instead of counting the worker
		// out of the cohort it just rejoined.
		s.sessions.drop(old)
		old.end()
		_ = old.conn.Close()
	}
	s.sm.treeChildJoins.Inc()
	s.shrinkWindow()

	now := s.clock()
	s.policyMu.Lock()
	if rejoined {
		s.sm.rejoins.Inc()
	}
	decision := s.cfg.Policy.OnJoin(core.WorkerID(w), now)
	s.recordReleases(decision.Release, now)
	s.queueReleases(releaseBatch{release: decision.Release, gate: s.cfg.Store.Reserved()})
	s.policyMu.Unlock()

	s.enqueueSession(trunk, transport.Message{
		Type:        transport.MsgRegistered,
		Worker:      w,
		Version:     s.cfg.Store.Version(),
		Codec:       s.compression.Codec,
		CodecTopK:   s.compression.TopK,
		CodecPull:   s.compression.Pull,
		StoreShards: s.cfg.Store.Shards(),
		DeltaPull:   msg.DeltaPull && !s.cfg.DisableDeltaPull,
	})
}

// handleChildLeave processes a routed worker's departure, forwarded by its
// relay. The route check makes stale forwards harmless: a child that already
// re-parented (directly or under another relay) is no longer this trunk's to
// remove.
func (s *Server) handleChildLeave(trunk *session, w int) {
	if w < 0 || w >= s.cfg.Workers {
		return
	}
	now := s.clock()
	s.mu.Lock()
	if s.routes[w] != trunk {
		s.mu.Unlock()
		return
	}
	delete(s.routes, w)
	finished := s.finished[w]
	if !finished {
		s.departedAt[w] = now
	}
	s.mu.Unlock()
	s.sm.treeChildLeaves.Inc()

	s.policyMu.Lock()
	if !finished {
		s.sm.departures.Inc()
	}
	decision := s.cfg.Policy.OnLeave(core.WorkerID(w), now)
	delete(s.pushedAt, w)
	s.recordReleases(decision.Release, now)
	s.queueReleases(releaseBatch{release: decision.Release, gate: s.cfg.Store.Reserved()})
	s.policyMu.Unlock()
	s.shrinkWindow()
	s.checkAllDone()
}

// trunkGone sweeps a dead trunk's routed children out of the cohort: each is
// departed exactly as if its own connection had died, so barrier paradigms
// release the survivors instead of deadlocking, and the rejoin grace window
// gives the children time to re-parent. The layout drops the relay first, so
// a child that refetches it immediately lands somewhere live.
func (s *Server) trunkGone(trunk *session) {
	s.tree.remove(trunk)
	now := s.clock()
	s.mu.Lock()
	var kids []int
	for w, t := range s.routes {
		if t == trunk {
			kids = append(kids, w)
		}
	}
	sort.Ints(kids)
	finished := make(map[int]bool, len(kids))
	for _, w := range kids {
		delete(s.routes, w)
		finished[w] = s.finished[w]
		if !s.finished[w] {
			s.departedAt[w] = now
		}
	}
	s.mu.Unlock()
	for _, w := range kids {
		s.sm.treeChildLeaves.Inc()
		s.policyMu.Lock()
		if !finished[w] {
			s.sm.departures.Inc()
		}
		decision := s.cfg.Policy.OnLeave(core.WorkerID(w), now)
		delete(s.pushedAt, w)
		s.recordReleases(decision.Release, now)
		s.queueReleases(releaseBatch{release: decision.Release, gate: s.cfg.Store.Reserved()})
		s.policyMu.Unlock()
	}
	s.shrinkWindow()
	s.checkAllDone()
}

// handleRelayPush accepts a relay's forwarded partial: one gradient payload
// standing in for the pushes of every worker listed in PushEntries. The
// policy sees each logical push individually (OnPush per entry, in entry
// order, under one policyMu hold — indistinguishable from the children
// pushing back-to-back), and the store reserves one ticket per accepted
// entry via the weighted enqueue, so the version advances by k and staleness
// is measured against each child's own base version.
//
// Unlike the lock-step worker path, trunk pushes pipeline — the relay may
// flush partial n+1 before partial n's children are released — so the decode
// never reuses session scratch: the previous payload may still be queued on
// a shard applier. Leased receive buffers pipeline for free: each partial
// holds its own until the sequencer has seen its tickets applied
// (releaseBatch.pushed), exactly as a worker's push does.
func (s *Server) handleRelayPush(sess *session, msg transport.Message) {
	entries := msg.PushEntries
	if len(entries) == 0 {
		msg.Release()
		s.enqueueSession(sess, transport.Message{
			Type:  transport.MsgError,
			Error: "relay push carries no entries",
		})
		return
	}
	for _, e := range entries {
		if e.Worker < 0 || e.Worker >= s.cfg.Workers {
			msg.Release()
			s.enqueueSession(sess, transport.Message{
				Type:  transport.MsgError,
				Error: fmt.Sprintf("relay push entry names worker %d outside [0,%d)", e.Worker, s.cfg.Workers),
			})
			return
		}
	}
	decodeStart := time.Now()
	grads, decodeErr := s.decodeRelayPush(msg)
	s.sm.phaseDecode.Observe(time.Since(decodeStart).Seconds())

	now := s.clock()
	policyStart := time.Now()
	s.policyMu.Lock()
	if !s.sessions.current(sess) {
		s.policyMu.Unlock()
		msg.Release()
		return
	}
	var release []core.WorkerID
	drops := make([]bool, len(entries))
	accepted := 0
	for i, e := range entries {
		decision := s.cfg.Policy.OnPush(core.WorkerID(e.Worker), now)
		s.pushedAt[e.Worker] = now
		release = append(release, decision.Release...)
		if decision.Drop {
			drops[i] = true
			s.sm.droppedPolicy.Inc()
		} else {
			accepted++
		}
	}

	var pushErr error
	var ticket int64
	if accepted > 0 {
		if decodeErr != nil {
			pushErr = decodeErr
		} else {
			ticket, pushErr = s.cfg.Store.EnqueueApplyWeighted(grads, int64(accepted))
		}
		if pushErr != nil {
			ticket = 0
		} else {
			s.sm.treePartials.Inc()
			s.sm.treePartialSize.Observe(float64(accepted))
			// The partial's tickets are (ticket-accepted, ticket]; walk them in
			// entry order so each child's staleness observes the version its
			// own logical push landed at.
			t := ticket - int64(accepted) + 1
			for i, e := range entries {
				if drops[i] {
					continue
				}
				s.sm.pushes.Inc()
				stale := int(t - 1 - e.Version)
				s.staleness.Observe(stale)
				s.sm.staleness.Observe(float64(stale))
				t++
			}
		}
	}

	s.recordReleases(release, now)
	var errTrunk *session
	var errWorkers []int
	if pushErr != nil {
		errTrunk = sess
		for i, e := range entries {
			if !drops[i] {
				errWorkers = append(errWorkers, e.Worker)
			}
		}
	}
	batch := releaseBatch{
		release:    release,
		gate:       s.cfg.Store.Reserved(),
		errTrunk:   errTrunk,
		err:        pushErr,
		errWorkers: errWorkers,
		ticket:     ticket,
		queuedAt:   time.Now(),
	}
	if ticket > 0 {
		batch.pushed = msg
	}
	s.queueReleases(batch)
	s.policyMu.Unlock()
	if ticket == 0 {
		msg.Release()
	}
	s.sm.phasePolicy.Observe(time.Since(policyStart).Seconds())
}

// decodeRelayPush mirrors decodePush without the session-scratch reuse:
// trunk pushes pipeline, so every payload gets fresh tensors that stay valid
// on the shard queues however many partials are in flight.
func (s *Server) decodeRelayPush(msg transport.Message) ([]*tensor.Tensor, error) {
	compressed := msg.Codec != "" || len(msg.Packed) > 0
	switch {
	case compressed && (!s.compression.Enabled() || msg.Codec != s.compression.Codec):
		return nil, fmt.Errorf("push compressed with codec %q but server speaks %s", msg.Codec, s.compression)
	case compressed:
		grads, err := compress.DecompressAll(msg.Packed)
		msg.Release()
		return grads, err
	case s.compression.Enabled():
		return nil, fmt.Errorf("uncompressed push but server speaks %s", s.compression)
	case msg.PayloadOwned():
		return transport.FromWireOwned(msg.Tensors)
	default:
		return transport.FromWire(msg.Tensors)
	}
}
