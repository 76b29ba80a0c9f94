package ps

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/compress"
	"dssp/internal/obs"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// DefaultRelayFlushInterval is the watchdog bound on how long a relay holds
// a partial waiting for stragglers: a child that stalls without departing
// (slow hardware, a late joiner mid-barrier) delays its siblings' partial at
// most this long, counted from the push that opened it, before it forwards
// incomplete.
const DefaultRelayFlushInterval = 50 * time.Millisecond

// RelayConfig configures an aggregation relay (DESIGN.md §11; cmd/psserver
// -role relay): a middle tier that accepts ordinary worker sessions, sums the
// gradients of up to Fanout children coordinate-wise into one partial, and
// forwards a single ×k-weighted push to the root carrying the children's clock
// metadata — cutting the root's push ingress from O(workers) to
// O(workers/fanout) frames while the paradigm still sees every logical push.
// Codec and lease are the root's: the trunk adopts the root's codec, and the
// relay leases its children at the lease the root put the trunk under (none
// when the root leases nothing), so the subtree behaves exactly as if
// directly connected. It is dssp.RelayConfig. Addr and MetricsAddr are read
// only by dssp.ServeRelay, which listens and serves the admin endpoint;
// NewRelay is handed its dialer and registry as arguments instead.
type RelayConfig struct {
	// Addr is the child-facing TCP listen address, e.g. ":7071".
	Addr string
	// Advertise is the child-facing address published in the root's tree
	// layout — what the workers this relay covers dial. dssp.ServeRelay
	// defaults it to the listener's own address (fine on one host; set it
	// explicitly across machines, where ":7071" is not dialable).
	Advertise string
	// Parent is the root server's address, dialed twice at construction: once
	// for the trunk the children's control traffic and the partials ride, once
	// for the replica session the pull cache refreshes through.
	Parent string
	// Fanout is how many workers this relay covers in the root's tree layout.
	// Must be at least 1.
	Fanout int
	// MetricsAddr, when non-empty, starts an admin HTTP listener serving the
	// relay's metrics (/metrics: dssp_relay_* series plus transport meters),
	// /healthz and pprof. "127.0.0.1:0" picks a free port.
	MetricsAddr string
}

// Relay is the aggregation-relay process. It speaks the ordinary worker
// protocol downstream — children register, push, pull, heartbeat and leave
// exactly as against a root server, as worker sessions of the session layer
// the root runs on (session.go) — and two upstream sessions, each an ordinary
// Client: a trunk (negative-key session multiplexing the children's control
// traffic and the summed pushes) and a replica pull session feeding the cache
// child pulls are served from.
//
// A partial flushes upstream when every live unfinished child has
// contributed ("full"), when a contributor pushes again before the flush
// ("duplicate", preserving per-child push ordering), when a contributor
// departs or finishes, or when the watchdog bounds a straggler's delay. The
// forwarded push's PushEntries carry each child's worker ID, base version
// and iteration, so the root's policy layer sees every logical push.
type Relay struct {
	// sessionLayer serves the children; the methods named by tier are what a
	// relay does with their traffic.
	sessionLayer

	// trunk is the trunk session, registered under the key the root
	// assigned, with the codec it negotiated (the one every hop of the subtree
	// speaks). Its pushes, push slot and pushed-byte count are r.mu's
	// (flushLocked); the children's forwarded joins, departures and
	// completions go out on its connection directly, and trunkLoop alone
	// reads it. Its error-feedback compressor carries what quantization
	// discards from one partial into the next, per hop, exactly as a
	// worker's own does per worker.
	trunk *Client
	// up is the replica pull client; pullMu serializes child pulls through
	// it (the client is single-goroutine by contract) and guards packed.
	up     *Client
	pullMu sync.Mutex
	// packed memoizes the packed form of the upstream reply at version
	// packedAt, so compressed fan-out to many children quantizes once per
	// reply instead of once per child pull.
	packed   []compress.Packed
	packedAt int64

	reg *obs.Registry
	rm  *relayMetrics

	// layout is the upstream model's tensor shapes, learned from the first
	// pull: what a window's first push is checked against, so no child's
	// payload dictates the layout its siblings are judged by.
	layout atomic.Pointer[[][]int]

	// mu guards pendingJoins, partial, spareSum, the trunk's pushes and push
	// slot, doneCount and the children's session.finished, and orders trunk
	// flushes (the send happens under it, so forwarded partials leave in
	// completion order).
	mu           sync.Mutex
	pendingJoins map[int]chan transport.Message
	partial      *relayPartial
	doneCount    int
	// spareSum is the last flushed partial's sum buffers, the next partial's:
	// the trunk's Send was done with them when it returned.
	spareSum []*tensor.Tensor
	// watchdog fires DefaultRelayFlushInterval after the newest partial
	// opened (watchdogLoop); it is armed under mu.
	watchdog *time.Timer

	stopOnce sync.Once

	errMu sync.Mutex
	err   error

	ingressBytes atomic.Int64
}

// relayPartial is the in-progress sum: the window accumulating children's
// gradients until the flush condition fires.
type relayPartial struct {
	// sum is nil while the window holds one dense push, which stays on its
	// receive lease in first until the next arrival sums both into sum in
	// one pass, or a flush copies it there (sumLocked).
	sum []*tensor.Tensor
	// inSlot: sum is the trunk slot's, not heap buffers for spareSum.
	inSlot bool
	// first and firstGrads are the held push and its tensors, which alias
	// first's receive buffer.
	first      transport.Message
	firstGrads []*tensor.Tensor
	entries    []transport.PushEntry
	members    map[int]bool
	minBase    int64
	started    time.Time
}

// relayMetrics is the relay's instrumentation bundle (docs/METRICS.md).
type relayMetrics struct {
	childPushes  *obs.Counter
	forwarded    *obs.Counter
	partialDepth *obs.Histogram
	flushFull    *obs.Counter
	flushDup     *obs.Counter
	flushDepart  *obs.Counter
	flushDone    *obs.Counter
	flushWatch   *obs.Counter
}

func newRelayMetrics(reg *obs.Registry, r *Relay) *relayMetrics {
	reg.GaugeFunc("dssp_relay_children",
		"Worker sessions currently registered on this relay.",
		func() float64 { return float64(len(r.sessions.list())) })
	flushes := reg.CounterVec("dssp_relay_flushes_total",
		"Partials forwarded upstream, by flush reason.", "reason")
	return &relayMetrics{
		childPushes: reg.Counter("dssp_relay_child_pushes_total",
			"Gradient pushes received from children."),
		forwarded: reg.Counter("dssp_relay_forwarded_pushes_total",
			"Aggregated partials forwarded upstream."),
		partialDepth: reg.Histogram("dssp_relay_partial_depth",
			"Child pushes carried by each forwarded partial.",
			obs.SizeBuckets),
		flushFull:   flushes.With("full"),
		flushDup:    flushes.With("duplicate"),
		flushDepart: flushes.With("departure"),
		flushDone:   flushes.With("done"),
		flushWatch:  flushes.With("watchdog"),
	}
}

// NewRelay dials the parent with dial, registers the trunk (negotiating the
// codec) and the replica pull session, and starts the relay's background
// loops; its instrumentation lives on reg (nil creates a private registry).
// Serve accepts children afterwards.
func NewRelay(cfg RelayConfig, dial func(addr string) (transport.Conn, error), reg *obs.Registry) (*Relay, error) {
	if dial == nil {
		return nil, fmt.Errorf("ps: relay needs a parent dialer")
	}
	if cfg.Fanout < 1 {
		return nil, fmt.Errorf("ps: relay needs a positive fanout, got %d", cfg.Fanout)
	}
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("ps: relay needs an advertise address for the tree layout")
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}

	conn, err := dial(cfg.Parent)
	if err != nil {
		return nil, fmt.Errorf("ps: relay trunk dial: %w", err)
	}
	trunk, err := NewClientCompressed(conn, 0, compress.Config{Codec: compress.Auto})
	if err == nil {
		trunk.self = []transport.ServerEntry{{Addr: cfg.Advertise, ShardHi: cfg.Fanout}}
		err = trunk.Register()
	}
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("ps: relay trunk: %w", err)
	}
	upConn, err := dial(cfg.Parent)
	if err != nil {
		_ = trunk.Close()
		return nil, fmt.Errorf("ps: relay pull dial: %w", err)
	}
	// The pull session adopts the codec the trunk just negotiated with the
	// same server.
	up, err := OpenReplica(upConn)
	if err != nil {
		_ = trunk.Close()
		return nil, fmt.Errorf("ps: relay pull session: %w", err)
	}

	r := &Relay{
		trunk:        trunk,
		up:           up,
		reg:          reg,
		pendingJoins: make(map[int]chan transport.Message),
		watchdog:     time.NewTimer(DefaultRelayFlushInterval),
	}
	r.watchdog.Stop()
	r.bind(r, time.Now, map[transport.MessageType]func(transport.Conn, transport.Message){
		transport.MsgClusterMap: emptyLayout,
	})
	r.rm = newRelayMetrics(reg, r)

	r.wg.Add(2)
	go func() { defer r.wg.Done(); r.trunkLoop() }()
	go func() { defer r.wg.Done(); r.watchdogLoop() }()
	// The children registered through the trunk are under its lease, which
	// their forwarded Registered replies name: the relay holds them to it.
	if trunk.lease > 0 {
		r.wg.Add(1)
		go r.leaseMonitor(trunk.lease, nil)
	}
	return r, nil
}

// Stop shuts the relay down: upstream sessions and every child connection
// close, so children immediately re-parent instead of hanging. Safe to call
// multiple times.
func (r *Relay) Stop() {
	r.stopOnce.Do(func() {
		r.shutdown()
		// The connections, not the clients: Client.Close would end the pull
		// lease a handlePull in flight still reads under pullMu, and the
		// trunk's push slot under a fold.
		_ = r.trunk.conn.Close()
		_ = r.up.conn.Close()
		r.trunk.stopHeartbeats()
		r.up.stopHeartbeats()
		// A partial summing in the trunk slot can never be sent now; it goes
		// with the slot, under the lock every fold takes. A held first push
		// can never be summed: its lease ends here.
		r.mu.Lock()
		if p := r.partial; p != nil && (p.inSlot || p.sum == nil) {
			p.first.Release()
			r.partial = nil
		}
		r.trunk.endLeases()
		r.mu.Unlock()
	})
}

// Done returns a channel closed when the relay has stopped (Stop called or
// the trunk failed).
func (r *Relay) Done() <-chan struct{} { return r.stopped }

// Err returns the failure that stopped the relay, if any.
func (r *Relay) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// Registry returns the metrics registry the relay's instrumentation lives on.
func (r *Relay) Registry() *obs.Registry { return r.reg }

// RelayStats snapshots a relay's traffic accounting: what came in from
// children versus what went upstream, in the same payload-byte units
// Client.Traffic reports — which is what lets worker- and server-side byte
// counters reconcile across the hop.
type RelayStats struct {
	Children        int
	ChildPushes     uint64
	IngressBytes    int64
	ForwardedPushes uint64
	ForwardedBytes  int64
}

// Stats snapshots the relay's live accounting.
func (r *Relay) Stats() RelayStats {
	r.mu.Lock()
	forwarded, _ := r.trunk.Traffic()
	r.mu.Unlock()
	return RelayStats{
		Children:        len(r.sessions.list()),
		ChildPushes:     r.rm.childPushes.Value(),
		IngressBytes:    r.ingressBytes.Load(),
		ForwardedPushes: r.rm.forwarded.Value(),
		ForwardedBytes:  forwarded,
	}
}

// runComplete reports whether this relay's run ended cleanly: at least one
// child finished and no unfinished child is still attached. A trunk close in
// that state is the root shutting down after a completed run, not a fault —
// a trunk lost while unfinished children still depend on it stays fatal.
func (r *Relay) runComplete() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.doneCount > 0 && r.sessions.every(func(ch *session) bool { return ch.finished })
}

// fail records the first fatal error and stops the relay. Always called off
// the locked paths (see flushLocked).
func (r *Relay) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.Stop()
}

// trunkLoop demultiplexes the trunk's downstream traffic: MsgRegistered and
// per-worker MsgError replies to forwarded joins, and per-worker MsgOK /
// MsgError releases to pushing children, which ride the child session's
// outbox — a child whose socket has stalled holds up its own writer, never
// this loop and its siblings' releases. A trunk receive error is fatal —
// children's connections close, and they re-parent via a fresh layout fetch.
func (r *Relay) trunkLoop() {
	for {
		msg, err := r.trunk.conn.Recv()
		if err != nil {
			select {
			case <-r.stopped:
			default:
				if r.runComplete() {
					// The root closing the trunk after every child this relay
					// ever served reported Done is the normal end of a run,
					// not a failure.
					r.Stop()
				} else {
					r.fail(fmt.Errorf("ps: relay trunk: %w", err))
				}
			}
			return
		}
		switch msg.Type {
		case transport.MsgRegistered:
			r.deliverJoin(msg)
		case transport.MsgOK, transport.MsgError:
			if msg.Type == transport.MsgError && r.deliverJoin(msg) {
				continue
			}
			if ch := r.sessions.get(msg.Worker); ch != nil {
				r.enqueueSession(ch, msg)
			}
		default:
			// Forward-compatible: unknown trunk traffic is ignored.
		}
	}
}

// deliverJoin hands a join reply to the child handler waiting on it and
// reports whether one was.
func (r *Relay) deliverJoin(msg transport.Message) bool {
	r.mu.Lock()
	join := r.pendingJoins[msg.Worker]
	delete(r.pendingJoins, msg.Worker)
	r.mu.Unlock()
	if join == nil {
		return false
	}
	select {
	case join <- msg:
	default:
	}
	return true
}

// watchdogLoop bounds partial age: a partial forwards incomplete once it is
// DefaultRelayFlushInterval old. The timer is re-armed as each partial opens,
// so it fires when the newest one comes of age, and a relay with no partial
// open does not wake.
func (r *Relay) watchdogLoop() {
	defer r.watchdog.Stop()
	for {
		select {
		case <-r.stopped:
			return
		case <-r.watchdog.C:
			r.mu.Lock()
			if p := r.partial; p != nil {
				if age := r.clock().Sub(p.started); age >= DefaultRelayFlushInterval {
					r.flushLocked("watchdog")
				} else {
					r.watchdog.Reset(DefaultRelayFlushInterval - age)
				}
			}
			r.mu.Unlock()
		}
	}
}

// emptyLayout answers a map request that reached a relay with an empty tree
// layout: a relay covers whoever dials it, so a worker registers here.
func emptyLayout(conn transport.Conn, _ transport.Message) {
	_ = conn.Send(transport.Message{Type: transport.MsgClusterMap, Relay: true})
}

// handleRegister forwards a child registration upstream and, once the root
// admits it, installs the child as a worker session (superseding a previous
// session of the same worker). The child's reply is the root's own
// MsgRegistered — codec and lease are the root's decisions — forwarded
// verbatim.
func (r *Relay) handleRegister(conn transport.Conn, _ *session, msg transport.Message) *session {
	if msg.Relay || msg.Replica {
		_ = conn.Send(transport.Message{
			Type:  transport.MsgError,
			Error: "relays accept ordinary workers only; register relays and replicas at the root",
		})
		return nil
	}
	w := msg.Worker
	replyCh := make(chan transport.Message, 1)
	r.mu.Lock()
	r.pendingJoins[w] = replyCh
	r.mu.Unlock()
	fwd := msg
	fwd.Tensors = nil
	fwd.Packed = nil
	if err := r.trunk.conn.Send(fwd); err != nil {
		go r.fail(fmt.Errorf("ps: relay trunk: %w", err))
		return nil
	}
	var reply transport.Message
	select {
	case reply = <-replyCh:
	case <-r.stopped:
		return nil
	case <-time.After(30 * time.Second):
		// A slow root is no decision: the closed connection is one the child
		// retries, where an Error would be final.
		return nil
	}
	if reply.Type == transport.MsgError {
		_ = conn.Send(reply)
		return nil
	}
	ch := newSession(kindWorker, w, conn, msg.Type == transport.MsgRejoin, r.clock())
	r.supersede(w, ch)
	if !r.open(ch) {
		return nil
	}
	r.enqueueSession(ch, reply)
	return ch
}

// handleLeave ends the child's session; departed forwards the departure.
func (r *Relay) handleLeave(ch *session, _ transport.Message) bool {
	r.leave(ch)
	return true
}

// departed sees a child out. If the child had contributed to the pending
// partial, the partial flushes first — its entry is already counted, and the
// flush-then-leave ordering means the root processes the push before the
// departure. The departure of a non-contributor can complete the partial for
// the survivors. The departure is forwarded upstream so the root's policy
// counts the worker out (the root verifies the route, so a stale forward after
// the child re-parented is harmless).
func (r *Relay) departed(ch *session) {
	r.mu.Lock()
	if r.partial != nil {
		if r.partial.members[ch.worker] {
			r.flushLocked("departure")
		} else if r.completeLocked() {
			r.flushLocked("full")
		}
	}
	r.mu.Unlock()
	_ = r.trunk.conn.Send(transport.Message{Type: transport.MsgLeave, Worker: ch.worker})
}

// handleDone marks the child finished — shrinking the membership the flush
// condition waits on — and forwards the completion upstream.
func (r *Relay) handleDone(ch *session, _ transport.Message) {
	r.mu.Lock()
	ch.finished = true
	r.doneCount++
	if r.partial != nil && r.completeLocked() {
		r.flushLocked("done")
	}
	r.mu.Unlock()
	_ = r.trunk.conn.Send(transport.Message{Type: transport.MsgDone, Worker: ch.worker})
}

// handlePush folds one child's gradients into the pending partial and flushes
// when the window is complete. A window's first dense push is held on its
// receive lease, not copied; the second arrival sums both into the partial's
// own buffers in one pass and ends that lease, and later ones add in place.
// Every other push's receive buffer goes back to the child's connection when
// the handler returns — a packed push's decoded values live in the child's
// scratch, which its next push reuses, so it is copied at once. A payload
// whose tensors do not match the partial's — or, for a window's first push,
// the upstream model's — folds nothing: the child gets the error, and its
// siblings' partial flushes intact.
func (r *Relay) handlePush(ch *session, msg transport.Message) {
	held := false
	defer func() {
		if !held {
			msg.Release()
		}
	}()
	reject := func(reason string) {
		r.enqueueSession(ch, transport.Message{Type: transport.MsgError, Worker: ch.worker, Error: reason})
	}
	if msg.Prefetch {
		// The root's Registered reply, forwarded to the child, offered none.
		reject(prefetchRefused)
		return
	}
	// The child's decompression scratch is reused across its pushes: it is
	// lock-step, and the decoded values are folded into the partial's own
	// buffers before the handler returns.
	grads, bytes, err := decodePayload(msg, r.trunk.cfg, &ch.decodeScratch)
	if err != nil {
		reject(err.Error())
		return
	}
	r.ingressBytes.Add(bytes)
	r.mu.Lock()
	if r.partial != nil && r.partial.members[ch.worker] {
		// The child is pushing again before the window closed — its previous
		// contribution must reach the root first, or its per-worker push
		// ordering (and any policy counting on it) breaks.
		r.flushLocked("duplicate")
	}
	p := r.partial
	fits := fitsLayout(grads, r.layout.Load())
	if p != nil {
		folded := p.sum
		if folded == nil {
			folded = p.firstGrads
		}
		fits = sameLayout(folded, grads)
	}
	if !fits {
		r.mu.Unlock()
		reject("push does not match the model's tensor layout")
		return
	}
	switch {
	case p == nil:
		p = &relayPartial{
			members: make(map[int]bool),
			minBase: msg.Version,
			started: r.clock(),
		}
		r.partial = p
		r.watchdog.Reset(DefaultRelayFlushInterval)
		if r.trunk.cfg.Enabled() {
			r.sumLocked(p, grads)
		} else {
			p.first, p.firstGrads, held = msg, grads, true
		}
	case p.sum == nil:
		r.sumLocked(p, grads)
	default:
		for i, g := range grads {
			p.sum[i].Add(g)
		}
	}
	if msg.Version < p.minBase {
		p.minBase = msg.Version
	}
	p.entries = append(p.entries, transport.PushEntry{
		Worker:    ch.worker,
		Version:   msg.Version,
		Iteration: msg.Iteration,
	})
	p.members[ch.worker] = true
	r.rm.childPushes.Inc()
	if r.completeLocked() {
		r.flushLocked("full")
	}
	r.mu.Unlock()
}

// sumLocked gives p its sum buffers — the trunk's push slot when it is free,
// else the last flushed partial's, else fresh ones — and writes into them the
// held first push plus grads in one pass (a copy of grads when nothing is
// held, of the held push when grads is nil), ending the held push's lease.
// Callers hold r.mu.
func (r *Relay) sumLocked(p *relayPartial, grads []*tensor.Tensor) {
	shape := grads
	if shape == nil {
		shape = p.firstGrads
	}
	if sum := r.trunk.PushSlot(shape); sum != nil {
		p.sum, p.inSlot = sum, true
	} else if sameLayout(r.spareSum, shape) {
		p.sum, r.spareSum = r.spareSum, nil
	} else {
		p.sum = make([]*tensor.Tensor, len(shape))
		for i, g := range shape {
			p.sum[i] = tensor.New(g.Shape()...)
		}
	}
	var pair [2]*tensor.Tensor
	for i, sum := range p.sum {
		srcs := pair[:0]
		if p.firstGrads != nil {
			srcs = append(srcs, p.firstGrads[i])
		}
		if grads != nil {
			srcs = append(srcs, grads[i])
		}
		tensor.SumInto(sum, srcs)
	}
	p.first.Release()
	p.first, p.firstGrads = transport.Message{}, nil
}

// sameLayout reports whether a holds one tensor of b's shape per tensor of b
// (false for an empty a).
func sameLayout(a, b []*tensor.Tensor) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].SameShape(b[i]) {
			return false
		}
	}
	return true
}

// fitsLayout reports whether grads holds one tensor of each of layout's
// shapes; a nil layout (no pull has shown the model yet) fits anything.
func fitsLayout(grads []*tensor.Tensor, layout *[][]int) bool {
	if layout == nil {
		return true
	}
	if len(grads) != len(*layout) {
		return false
	}
	for i, g := range grads {
		if !g.ShapeEquals((*layout)[i]) {
			return false
		}
	}
	return true
}

// completeLocked reports whether the pending partial holds a contribution
// from every live unfinished child. Callers hold r.mu.
func (r *Relay) completeLocked() bool {
	if r.partial == nil || len(r.partial.members) == 0 {
		return false
	}
	return r.sessions.every(func(ch *session) bool {
		return ch.finished || r.partial.members[ch.worker]
	})
}

// flushLocked forwards the pending partial upstream as one ×k-weighted push:
// the summed gradients plus the per-child PushEntries the root's policy
// layer replays, based on the oldest version any child computed against.
// Callers hold r.mu — the send happens under it, so partials leave in
// completion order. A partial still holding its first push alone copies it
// into sum buffers first (sumLocked), ending the lease. When the trunk's push
// returns nothing upstream reads the sum buffers (or the compressor's, which
// the next flush overwrites) again, so heap ones become the next partial's
// (spareSum); the trunk slot's are the root's until it releases the frame.
func (r *Relay) flushLocked(reason string) {
	p := r.partial
	r.partial = nil
	if p == nil || len(p.entries) == 0 {
		return
	}
	if p.sum == nil {
		r.sumLocked(p, nil)
	}
	switch reason {
	case "full":
		r.rm.flushFull.Inc()
	case "duplicate":
		r.rm.flushDup.Inc()
	case "departure":
		r.rm.flushDepart.Inc()
	case "done":
		r.rm.flushDone.Inc()
	case "watchdog":
		r.rm.flushWatch.Inc()
	}
	r.rm.forwarded.Inc()
	r.rm.partialDepth.Observe(float64(len(p.entries)))
	if err := r.trunk.push(p.sum, nil, p.minBase, p.entries[0].Iteration, p.entries, false); err != nil {
		go r.fail(fmt.Errorf("ps: relay trunk: %w", err))
	}
	if !p.inSlot {
		r.spareSum = p.sum
	}
}

// share passes the root's generation region on to the children, when the
// pull session reached the root over the lane and the root offered one: a
// child's pull reply then names where the weights lie in it, as the root's
// reply to the relay did, and no body crosses the relay (handlePull).
func (r *Relay) share(h transport.RegionHost) { h.ShareRegion(r.up.conn) }

// handlePull refreshes the relay's upstream cache and serves the child from
// it in full, in one Weights frame — the same shape the root would answer
// with. The upstream refresh is gated on the version the cache holds, so
// when nothing moved the hop carries one empty frame; when it did, the relay
// downloads the reply once and fans it out to every pulling child. Children
// name no version, so their pulls are never gated: every push moves every
// shard, and a worker pulls once per push. A pull the upstream session fails
// fails the relay.
//
// Lease rules: the tensors r.up.Pull returns are on its lease — they alias a
// receive buffer that goes back to the upstream connection when the next
// r.up.Pull supersedes the reply. Every use of them therefore stays under
// pullMu, which that next Pull also needs, and the child connection's Send is
// done with the reply when it returns (transport.Conn). That is why the reply
// goes out from this goroutine, on the connection, instead of through the
// session's outbox like every other reply: by the time pullMu is released it
// is encoded. Where the root's reply was a reference into its generation
// region and the child shares the region too (share), the Send is a
// reference frame to the same memory, and the transport keeps the upstream
// reply leased until the child has released it, whatever Pull does with the
// cache meanwhile.
func (r *Relay) handlePull(ch *session, _ transport.Message) {
	r.pullMu.Lock()
	defer r.pullMu.Unlock()
	params, version, err := r.up.Pull()
	if err != nil {
		// Every pull of the subtree rides this one session, so a failed one
		// fails the relay, as a trunk receive error does: its children's
		// connections close and they re-parent through the root's layout.
		if !isClosed(r.stopped) {
			go r.fail(fmt.Errorf("ps: relay pull session: %w", err))
		}
		return
	}
	if r.layout.Load() == nil {
		layout := make([][]int, len(params))
		for i, p := range params {
			layout[i] = p.Shape()
		}
		r.layout.Store(&layout)
	}
	out := transport.Message{Type: transport.MsgWeights, Worker: ch.worker, Version: version}
	if codec := r.trunk.cfg; codec.Pull && codec.Enabled() {
		// A reply at packedAt is a correct copy at that version, so its pack
		// is too.
		if r.packed == nil || r.packedAt != version {
			r.packed, r.packedAt = compress.Pack(params, codec), version
		}
		out.Codec, out.Packed = codec.Codec, r.packed
	} else {
		out.Tensors = transport.ToWireOwned(params)
	}
	_ = ch.conn.Send(out)
}
