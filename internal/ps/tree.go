package ps

import (
	"fmt"
	"sort"
	"sync"

	"dssp/internal/transport"
)

// This file holds what the root keeps for the aggregation-relay tier (DESIGN.md
// §11) beyond the slot lifecycle: the tree layout workers fetch to find their
// relay, and the screen a trunk registration must pass. A trunk's traffic —
// child joins, summed pushes, child departures, the sweep its death triggers
// — runs through the same admit / handlePush / depart path as a worker's own
// (server.go), with the trunk as the slot's carrier.
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
	if s.coordinator() {
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
