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
// most this long before it forwards incomplete.
const DefaultRelayFlushInterval = 50 * time.Millisecond

// RelayConfig configures an aggregation relay (DESIGN.md §11): a middle-tier
// process that accepts ordinary worker push sessions, coordinate-wise sums
// the gradients of up to Fanout children into one partial, and forwards a
// single ×k-weighted push upstream carrying the children's clock metadata.
type RelayConfig struct {
	// Parent dials one upstream connection (to the root server). Called twice
	// at construction: once for the trunk the control plane rides, once for
	// the read-only replica session the pull cache refreshes through.
	Parent func() (transport.Conn, error)
	// Fanout is the number of children this relay covers in the root's tree
	// layout. Must be at least 1.
	Fanout int
	// Advertise is the child-facing address published in the layout — what
	// workers covered by this relay dial.
	Advertise string
	// Compression is the codec request carried on the trunk registration;
	// compress.Auto adopts whatever the root speaks. Children negotiate
	// against the root's configuration exactly as if directly connected.
	Compression compress.Config
	// HeartbeatInterval is the cadence of upstream liveness heartbeats
	// (trunk and pull sessions); 0 disables them.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the child-session lease: a child silent for longer
	// is evicted exactly as the root's lease monitor would. 0 disables child
	// leases (connection death still evicts).
	HeartbeatTimeout time.Duration
	// FlushInterval bounds how long a partial waits for straggling children
	// before forwarding incomplete; 0 selects DefaultRelayFlushInterval.
	FlushInterval time.Duration
	// Metrics is the registry the relay's instrumentation lives on; nil
	// creates a private one.
	Metrics *obs.Registry
	// Clock supplies timestamps; nil means time.Now.
	Clock func() time.Time
}

// Relay is the aggregation-relay process. It speaks the ordinary worker
// protocol downstream — children register, push, pull, heartbeat and leave
// exactly as against a root server — and two upstream sessions: a trunk
// (negative-key session multiplexing the children's control traffic and the
// summed pushes) and a replica pull session feeding the delta-pull cache
// child pulls are served from.
//
// A partial flushes upstream when every live unfinished child has
// contributed ("full"), when a contributor pushes again before the flush
// ("duplicate", preserving per-child push ordering), when a contributor
// departs or finishes, or when the watchdog bounds a straggler's delay. The
// forwarded push's PushEntries carry each child's worker ID, base version
// and iteration, so the root's policy layer sees every logical push.
type Relay struct {
	cfg           RelayConfig
	clock         func() time.Time
	flushInterval time.Duration

	trunk       transport.Conn
	trunkKey    int
	compression compress.Config
	// comp is the trunk hop's error-feedback compressor (nil for the
	// identity codec): what quantization discards from one forwarded partial
	// is carried into the next, per hop, exactly as a worker's own
	// compressor does per worker.
	comp *compress.Compressor
	// trunkSerializes and upLeases record what the two upstream connections
	// are (transport.SerializingSender): a serializing trunk is done with a
	// partial's sum buffers when Send returns, and a socket pull session
	// hands its chunks' receive buffers back as they are superseded, so what
	// aliases them must not outlive pullMu.
	trunkSerializes bool
	upLeases        bool

	// up is the replica pull client; pullMu serializes child pulls through
	// it (the client is single-goroutine by contract) and guards packCache.
	up     *Client
	pullMu sync.Mutex
	// packCache memoizes the packed form of each upstream shard by its
	// publication version, so compressed fan-out to many children quantizes
	// once per shard update instead of once per child pull.
	packCache []packedShard

	reg *obs.Registry
	rm  *relayMetrics

	// mu guards children, pendingJoins, partial and spareSum, and orders
	// trunk flushes (the send happens under it, so forwarded partials leave
	// in completion order).
	mu           sync.Mutex
	children     map[int]*relayChild
	pendingJoins map[int]chan transport.Message
	partial      *relayPartial
	doneCount    int
	// spareSum is the last flushed partial's sum buffers, kept for the next
	// partial once nothing upstream can still be reading them.
	spareSum []*tensor.Tensor

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup

	errMu sync.Mutex
	err   error

	ingressBytes   atomic.Int64
	forwardedBytes atomic.Int64
}

// packedShard is one packCache entry.
type packedShard struct {
	version int64
	packed  []compress.Packed
}

// relayChild is one live downstream worker session.
type relayChild struct {
	worker    int
	conn      transport.Conn
	deltaPull bool
	finished  bool
	// serializes reports that conn is a transport.SerializingSender (see
	// handleChildPull for what a reference-passing child gets instead).
	serializes bool

	mu       sync.Mutex
	lastSeen time.Time

	// decodeScratch is the child's decompression buffers, reused across its
	// pushes (handleChildPush).
	decodeScratch []*tensor.Tensor
}

func (ch *relayChild) touch(now time.Time) {
	ch.mu.Lock()
	ch.lastSeen = now
	ch.mu.Unlock()
}

func (ch *relayChild) seen() time.Time {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.lastSeen
}

// relayPartial is the in-progress sum: the window accumulating children's
// gradients until the flush condition fires.
type relayPartial struct {
	sum     []*tensor.Tensor
	entries []transport.PushEntry
	members map[int]bool
	minBase int64
	started time.Time
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
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.children))
		})
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

// NewRelay dials the parent, registers the trunk (negotiating the codec) and
// the replica pull session, and starts the relay's background loops. Serve
// or HandleConn accept children afterwards.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.Parent == nil {
		return nil, fmt.Errorf("ps: relay needs a parent dialer")
	}
	if cfg.Fanout < 1 {
		return nil, fmt.Errorf("ps: relay needs a positive fanout, got %d", cfg.Fanout)
	}
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("ps: relay needs an advertise address for the tree layout")
	}
	comp := cfg.Compression.Normalized()
	if err := comp.Validate(true); err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	flush := cfg.FlushInterval
	if flush <= 0 {
		flush = DefaultRelayFlushInterval
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}

	trunk, err := cfg.Parent()
	if err != nil {
		return nil, fmt.Errorf("ps: relay trunk dial: %w", err)
	}
	err = trunk.Send(transport.Message{
		Type:      transport.MsgRegister,
		Relay:     true,
		Codec:     comp.Codec,
		CodecTopK: comp.TopK,
		CodecPull: comp.Pull,
		Servers:   []transport.ServerEntry{{Addr: cfg.Advertise, ShardHi: cfg.Fanout}},
	})
	if err != nil {
		_ = trunk.Close()
		return nil, fmt.Errorf("ps: relay trunk register: %w", err)
	}
	reply, err := trunk.Recv()
	if err != nil {
		_ = trunk.Close()
		return nil, fmt.Errorf("ps: relay trunk register: %w", err)
	}
	if reply.Type == transport.MsgError {
		_ = trunk.Close()
		return nil, fmt.Errorf("ps: relay rejected: %s", reply.Error)
	}
	if reply.Type != transport.MsgRegistered {
		_ = trunk.Close()
		return nil, fmt.Errorf("ps: relay expected Registered, got %v", reply.Type)
	}
	negotiated := compress.Config{Codec: reply.Codec, TopK: reply.CodecTopK, Pull: reply.CodecPull}.Normalized()
	if comp.Codec != compress.Auto && !comp.Equal(negotiated) {
		_ = trunk.Close()
		return nil, fmt.Errorf("ps: relay negotiated codec %s but server speaks %s", comp, negotiated)
	}

	upConn, err := cfg.Parent()
	if err != nil {
		_ = trunk.Close()
		return nil, fmt.Errorf("ps: relay pull dial: %w", err)
	}
	// The pull session adopts the codec the trunk just negotiated with the
	// same server.
	up, err := OpenReplica(upConn, true)
	if err != nil {
		_ = trunk.Close()
		return nil, fmt.Errorf("ps: relay pull session: %w", err)
	}

	_, trunkSerializes := trunk.(transport.SerializingSender)
	_, upLeases := upConn.(transport.SerializingSender)
	r := &Relay{
		cfg:             cfg,
		clock:           clock,
		flushInterval:   flush,
		trunk:           trunk,
		trunkKey:        reply.Worker,
		compression:     negotiated,
		trunkSerializes: trunkSerializes,
		upLeases:        upLeases,
		up:              up,
		reg:             reg,
		children:        make(map[int]*relayChild),
		pendingJoins:    make(map[int]chan transport.Message),
		stopped:         make(chan struct{}),
	}
	if negotiated.Enabled() {
		if r.comp, err = compress.NewCompressor(negotiated); err != nil {
			_ = trunk.Close()
			_ = up.Close()
			return nil, err
		}
	}
	r.rm = newRelayMetrics(reg, r)

	r.wg.Add(2)
	go func() { defer r.wg.Done(); r.trunkLoop() }()
	go func() { defer r.wg.Done(); r.watchdogLoop() }()
	if cfg.HeartbeatInterval > 0 {
		stopUp := up.StartHeartbeats(cfg.HeartbeatInterval)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer stopUp()
			ticker := time.NewTicker(cfg.HeartbeatInterval)
			defer ticker.Stop()
			for {
				select {
				case <-r.stopped:
					return
				case <-ticker.C:
					if r.trunk.Send(transport.Message{Type: transport.MsgHeartbeat, Worker: r.trunkKey}) != nil {
						return
					}
				}
			}
		}()
	}
	return r, nil
}

// Serve accepts child connections from the listener until Stop is called or
// the listener fails. It blocks; run it in its own goroutine.
func (r *Relay) Serve(l transport.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-r.stopped:
				return nil
			default:
				return fmt.Errorf("ps: relay accept: %w", err)
			}
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handleConn(conn)
		}()
	}
}

// HandleConn serves a single pre-established child connection (in-process
// transports). It returns when the child disconnects or the relay stops.
func (r *Relay) HandleConn(conn transport.Conn) {
	r.handleConn(conn)
}

// Stop shuts the relay down: upstream sessions and every child connection
// close, so children immediately re-parent instead of hanging. Safe to call
// multiple times.
func (r *Relay) Stop() {
	r.stopOnce.Do(func() {
		close(r.stopped)
		_ = r.trunk.Close()
		_ = r.up.Close()
		r.mu.Lock()
		kids := make([]*relayChild, 0, len(r.children))
		for _, ch := range r.children {
			kids = append(kids, ch)
		}
		r.mu.Unlock()
		for _, ch := range kids {
			_ = ch.conn.Close()
		}
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
	children := len(r.children)
	r.mu.Unlock()
	return RelayStats{
		Children:        children,
		ChildPushes:     r.rm.childPushes.Value(),
		IngressBytes:    r.ingressBytes.Load(),
		ForwardedPushes: r.rm.forwarded.Value(),
		ForwardedBytes:  r.forwardedBytes.Load(),
	}
}

// runComplete reports whether this relay's run ended cleanly: at least one
// child finished and no unfinished child is still attached. A trunk close in
// that state is the root shutting down after a completed run, not a fault —
// a trunk lost while unfinished children still depend on it stays fatal.
func (r *Relay) runComplete() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.doneCount == 0 {
		return false
	}
	for _, ch := range r.children {
		if !ch.finished {
			return false
		}
	}
	return true
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
// MsgError releases to pushing children. A trunk receive error is fatal —
// children's connections close, and they re-parent via a fresh layout fetch.
func (r *Relay) trunkLoop() {
	for {
		msg, err := r.trunk.Recv()
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
			w := msg.Worker
			r.mu.Lock()
			join := r.pendingJoins[w]
			ch := r.children[w]
			r.mu.Unlock()
			if msg.Type == transport.MsgError && join != nil {
				r.deliverJoin(msg)
				continue
			}
			if ch != nil {
				_ = ch.conn.Send(msg)
			}
		default:
			// Forward-compatible: unknown trunk traffic is ignored.
		}
	}
}

// deliverJoin hands a join reply to the child handler waiting on it.
func (r *Relay) deliverJoin(msg transport.Message) {
	r.mu.Lock()
	join := r.pendingJoins[msg.Worker]
	delete(r.pendingJoins, msg.Worker)
	r.mu.Unlock()
	if join != nil {
		select {
		case join <- msg:
		default:
		}
	}
}

// watchdogLoop bounds partial age and sweeps expired child leases.
func (r *Relay) watchdogLoop() {
	tick := r.flushInterval / 2
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopped:
			return
		case <-ticker.C:
			now := r.clock()
			r.mu.Lock()
			if r.partial != nil && now.Sub(r.partial.started) >= r.flushInterval {
				r.flushLocked("watchdog")
			}
			r.mu.Unlock()
			if r.cfg.HeartbeatTimeout > 0 {
				r.mu.Lock()
				var stale []*relayChild
				for _, ch := range r.children {
					if now.Sub(ch.seen()) > r.cfg.HeartbeatTimeout {
						stale = append(stale, ch)
					}
				}
				r.mu.Unlock()
				for _, ch := range stale {
					r.dropChild(ch)
					_ = ch.conn.Close()
				}
			}
		}
	}
}

// handleConn reads messages from one child connection and services them on
// this goroutine, mirroring the root's connection loop.
func (r *Relay) handleConn(conn transport.Conn) {
	defer conn.Close()
	var ch *relayChild
	for {
		msg, err := conn.Recv()
		if err != nil {
			if ch != nil {
				r.dropChild(ch)
			}
			return
		}
		if ch != nil {
			ch.touch(r.clock())
		}
		switch msg.Type {
		case transport.MsgRegister, transport.MsgRejoin:
			if msg.Relay || msg.Replica {
				_ = conn.Send(transport.Message{
					Type:  transport.MsgError,
					Error: "relays accept ordinary workers only; register relays and replicas at the root",
				})
				return
			}
			ch = r.joinChild(conn, msg)
			if ch == nil {
				return
			}

		case transport.MsgHeartbeat:
			// Liveness only.

		case transport.MsgPush:
			if ch == nil {
				return
			}
			r.handleChildPush(ch, msg)

		case transport.MsgPull:
			if ch == nil {
				return
			}
			r.handleChildPull(ch, msg)

		case transport.MsgDone:
			if ch == nil {
				return
			}
			r.handleChildDone(ch)

		case transport.MsgLeave:
			if ch != nil {
				r.dropChild(ch)
			}
			return

		case transport.MsgClusterMap:
			_ = conn.Send(transport.Message{
				Type:  transport.MsgError,
				Error: "not the aggregation root; fetch the tree layout from the root server",
			})

		case transport.MsgShutdown:
			return

		default:
		}
	}
}

// joinChild forwards a child registration upstream and installs the session
// once the root admits it. The child's reply is the root's own MsgRegistered
// — codec, shard count and delta-pull grant are the root's decisions,
// forwarded verbatim.
func (r *Relay) joinChild(conn transport.Conn, msg transport.Message) *relayChild {
	w := msg.Worker
	replyCh := make(chan transport.Message, 1)
	r.mu.Lock()
	r.pendingJoins[w] = replyCh
	r.mu.Unlock()
	fwd := msg
	fwd.Tensors = nil
	fwd.Packed = nil
	if err := r.trunk.Send(fwd); err != nil {
		go r.fail(fmt.Errorf("ps: relay trunk: %w", err))
		return nil
	}
	var reply transport.Message
	select {
	case reply = <-replyCh:
	case <-r.stopped:
		return nil
	case <-time.After(30 * time.Second):
		_ = conn.Send(transport.Message{Type: transport.MsgError, Error: "relay join timed out waiting on the root"})
		return nil
	}
	if reply.Type == transport.MsgError {
		_ = conn.Send(reply)
		return nil
	}
	_, serializes := conn.(transport.SerializingSender)
	ch := &relayChild{
		worker:     w,
		conn:       conn,
		deltaPull:  reply.DeltaPull,
		serializes: serializes,
		lastSeen:   r.clock(),
	}
	r.mu.Lock()
	old := r.children[w]
	r.children[w] = ch
	r.mu.Unlock()
	if old != nil {
		_ = old.conn.Close()
	}
	if err := conn.Send(reply); err != nil {
		r.dropChild(ch)
		return nil
	}
	return ch
}

// dropChild removes a departed child. If the child had contributed to the
// pending partial, the partial flushes first — its entry is already counted,
// and the flush-then-leave ordering means the root processes the push before
// the departure. Removing a non-contributor can complete the partial for the
// survivors. The departure is forwarded upstream so the root's policy counts
// the worker out (the root verifies the route, so a stale forward after the
// child re-parented is harmless).
func (r *Relay) dropChild(ch *relayChild) {
	r.mu.Lock()
	if r.children[ch.worker] != ch {
		r.mu.Unlock()
		return
	}
	delete(r.children, ch.worker)
	if r.partial != nil {
		if r.partial.members[ch.worker] {
			r.flushLocked("departure")
		} else if r.completeLocked() {
			r.flushLocked("full")
		}
	}
	r.mu.Unlock()
	_ = r.trunk.Send(transport.Message{Type: transport.MsgLeave, Worker: ch.worker})
	_ = ch.conn.Close()
}

// handleChildDone marks the child finished — shrinking the membership the
// flush condition waits on — and forwards the completion upstream.
func (r *Relay) handleChildDone(ch *relayChild) {
	r.mu.Lock()
	ch.finished = true
	r.doneCount++
	if r.partial != nil && r.completeLocked() {
		r.flushLocked("done")
	}
	r.mu.Unlock()
	_ = r.trunk.Send(transport.Message{Type: transport.MsgDone, Worker: ch.worker})
}

// handleChildPush folds one child's gradients into the pending partial and
// flushes when the window is complete. The fold copies (or adds) every value
// into the partial's own sum, so the push's receive buffer goes back to the
// child's connection when the handler returns.
func (r *Relay) handleChildPush(ch *relayChild, msg transport.Message) {
	defer msg.Release()
	// The child's decompression scratch is reused across its pushes: it is
	// lock-step, and the decoded values are folded into the partial's own
	// buffers before the handler returns.
	grads, bytes, err := decodePayload(msg, r.compression, &ch.decodeScratch)
	if err != nil {
		_ = ch.conn.Send(transport.Message{Type: transport.MsgError, Worker: ch.worker, Error: err.Error()})
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
	if r.partial == nil {
		r.partial = &relayPartial{
			members: make(map[int]bool),
			minBase: msg.Version,
			started: r.clock(),
		}
	}
	p := r.partial
	if p.sum == nil {
		if sameLayout(r.spareSum, grads) {
			p.sum, r.spareSum = r.spareSum, nil
		} else {
			p.sum = make([]*tensor.Tensor, len(grads))
			for i, g := range grads {
				p.sum[i] = tensor.New(g.Shape()...)
			}
		}
		for i, g := range grads {
			copy(p.sum[i].Data(), g.Data())
		}
	} else {
		if len(grads) != len(p.sum) {
			r.mu.Unlock()
			_ = ch.conn.Send(transport.Message{
				Type:   transport.MsgError,
				Worker: ch.worker,
				Error:  fmt.Sprintf("push carries %d tensors, partial holds %d", len(grads), len(p.sum)),
			})
			return
		}
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

// completeLocked reports whether the pending partial holds a contribution
// from every live unfinished child. Callers hold r.mu.
func (r *Relay) completeLocked() bool {
	if r.partial == nil || len(r.partial.members) == 0 {
		return false
	}
	for w, ch := range r.children {
		if ch.finished {
			continue
		}
		if !r.partial.members[w] {
			return false
		}
	}
	return true
}

// flushLocked forwards the pending partial upstream as one ×k-weighted push:
// the summed gradients plus the per-child PushEntries the root's policy
// layer replays. Callers hold r.mu — the send happens under it, so partials
// leave in completion order. Once nothing upstream can still be reading the
// sum buffers — the compressor has packed them, or a serializing trunk's Send
// has returned — they become the next partial's (spareSum); on a
// reference-passing trunk the dense payload may be in flight while the next
// partial accumulates, so there every partial keeps its own.
func (r *Relay) flushLocked(reason string) {
	p := r.partial
	r.partial = nil
	if p == nil || len(p.entries) == 0 {
		return
	}
	msg := transport.Message{
		Type:        transport.MsgPush,
		Worker:      r.trunkKey,
		Version:     p.minBase,
		Iteration:   p.entries[0].Iteration,
		PushEntries: p.entries,
	}
	var bytes int64
	if r.comp != nil {
		msg.Codec = r.compression.Codec
		// Trunk pushes pipeline, so only a transport that serializes inside
		// Send (below, under r.mu) is done with the compressor's buffers
		// before the next flush overwrites them.
		msg.Packed = sendablePacked(r.trunk, r.comp.Compress(p.sum))
		for _, pk := range msg.Packed {
			bytes += int64(pk.WireSize())
		}
	} else {
		msg.Tensors = transport.ToWireOwned(p.sum)
		bytes = wireTensorBytes(msg.Tensors)
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
	r.forwardedBytes.Add(bytes)
	if err := r.trunk.Send(msg); err != nil {
		go r.fail(fmt.Errorf("ps: relay trunk: %w", err))
	}
	if r.comp != nil || r.trunkSerializes {
		r.spareSum = p.sum
	}
}

// handleChildPull refreshes the relay's upstream delta-pull cache and serves
// the child from it, one chunk per upstream store shard — the same shape the
// root would answer with, so the child's own delta cache gates identically.
// The upstream refresh is itself delta-gated, so when nothing moved the hop
// transfers almost nothing; when it did, the relay downloads each changed
// shard once and fans it out to every pulling child.
//
// Lease rules: r.up.shardCache's tensors are on Client.Pull's lease — over a
// socket they alias receive buffers that go back to the upstream connection
// when the next r.up.Pull supersedes their chunk. Every use of them therefore
// stays under pullMu, which that next Pull also needs: a serializing child
// connection has copied the chunk to its socket by the time Send returns, so
// it is served by reference; a reference-passing child could still be reading
// after pullMu is gone, so behind a leasing upstream it gets a copy.
func (r *Relay) handleChildPull(ch *relayChild, msg transport.Message) {
	r.pullMu.Lock()
	defer r.pullMu.Unlock()
	toWire := transport.ToWireOwned
	if r.upLeases && !ch.serializes {
		toWire = transport.ToWire
	}
	params, version, err := r.up.Pull()
	if err != nil {
		_ = ch.conn.Send(transport.Message{Type: transport.MsgError, Worker: ch.worker, Error: err.Error()})
		return
	}
	if !r.up.DeltaPull() || !r.up.cacheComplete() {
		// No upstream cache to chunk from (the root refused delta pulls):
		// serve the reassembled weights as one unchunked reply. Children were
		// granted delta pulls only if the root granted them, so this path
		// never needs per-shard versions.
		out := transport.Message{
			Type:    transport.MsgWeights,
			Worker:  ch.worker,
			Shards:  1,
			Total:   len(params),
			Version: version,
		}
		if r.compression.Pull && r.compression.Enabled() {
			out.Codec = r.compression.Codec
			out.Packed = compress.Pack(params, r.compression)
		} else {
			out.Tensors = toWire(params)
		}
		_ = ch.conn.Send(out)
		return
	}

	shards := len(r.up.shardCache)
	have := msg.PullVersions
	if !ch.deltaPull || len(have) != shards {
		have = nil
	}
	compressPull := r.compression.Pull && r.compression.Enabled()
	if compressPull && len(r.packCache) != shards {
		r.packCache = make([]packedShard, shards)
	}
	base := 0
	for i := 0; i < shards; i++ {
		ts := r.up.shardCache[i]
		shardV := r.up.shardVersions[i]
		out := transport.Message{
			Type:    transport.MsgWeights,
			Worker:  ch.worker,
			Shard:   i,
			Shards:  shards,
			Total:   len(params),
			Base:    base,
			Version: version,
		}
		base += len(ts)
		if ch.deltaPull {
			out.ShardVersion = shardV
		}
		if have != nil && have[i] == shardV {
			out.Unchanged = true
		} else if compressPull {
			if r.packCache[i].packed == nil || r.packCache[i].version != shardV {
				r.packCache[i] = packedShard{version: shardV, packed: compress.Pack(ts, r.compression)}
			}
			out.Codec = r.compression.Codec
			out.Packed = r.packCache[i].packed
		} else {
			out.Tensors = toWire(ts)
		}
		if ch.conn.Send(out) != nil {
			return
		}
	}
}
