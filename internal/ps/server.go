package ps

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// ServerConfig configures a parameter server.
type ServerConfig struct {
	// Workers is the number of worker slots: worker IDs live in [0, Workers).
	// All slots are expected to register for a classic fixed-membership run;
	// with Elastic set the population may shrink and grow during the run.
	Workers int
	// Policy is the synchronization paradigm deciding when pushed workers are
	// released (BSP, ASP, SSP, DSSP, ...). Its membership hooks
	// (OnJoin/OnLeave) are driven by the session layer: a dead connection or
	// an expired lease removes the worker from barrier and staleness
	// accounting so its peers never deadlock on a crash.
	Policy core.Policy
	// Store holds the global weights and applies updates.
	Store *Store
	// Options is the shared serving-knob surface (compression, aggregator,
	// guard, elasticity, heartbeat, checkpointing) — the same embedded struct
	// the trainer and the public configs expose, so field names like
	// cfg.Compression keep working unchanged.
	Options
	// Clock supplies timestamps for the policy; nil means time.Now. Only
	// tests set it, to script the times the policy and the wait accounting
	// see.
	Clock func() time.Time
	// Metrics is the registry the server's runtime instrumentation lives on
	// (counters, gauges, histograms; see docs/METRICS.md). Nil creates a
	// private registry — instrumentation is always on, and a caller that
	// wants to scrape or snapshot it passes its own registry (or reads
	// Server.Registry()).
	Metrics *obs.Registry
	// Trace configures sampled push-lifecycle tracing. The zero value keeps
	// the default 1-in-DefaultTraceEvery sampling; Every < 0 disables
	// tracing entirely.
	Trace obs.TraceConfig
	// Cluster is the server's role (PROTOCOL.md §6), which Start stands up.
	// The zero value is a flat server. A coordinator owns the group's policy
	// layer: it serves the cluster map, accepts metadata-only pushes from
	// cluster workers, and never carries weight bytes (its store is a
	// placeholder).
	Cluster ClusterConfig
}

// DefaultTraceEvery is the push-lifecycle trace sampling period when
// ServerConfig.Trace leaves Every at zero: one in every 64 pushes is traced.
const DefaultTraceEvery = 64

// DefaultHeartbeatTimeout is the lease length used when an elastic server
// does not specify one.
const DefaultHeartbeatTimeout = 5 * time.Second

// Server is the parameter server: it accepts worker connections, applies
// pushed gradients to the store, and releases workers according to the
// configured synchronization policy.
//
// Worker identity is a session, not an array slot: registration creates a
// session, every message refreshes its lease, and a Recv error, a graceful
// MsgLeave, or a missed-heartbeat eviction deregisters it and tells the
// policy the worker left — releasing any peers its departure unblocks. A
// worker may later rejoin (MsgRejoin) and re-enter synchronization
// accounting without restarting the run.
//
// Requests are handled on the connection goroutines themselves rather than
// being funneled through a central run loop. Pulls touch only the store's
// per-shard read locks, so any number of workers pull concurrently and a
// pull streams each shard to the wire as soon as that shard is unlocked.
//
// The push path is a pipeline. Only the cheap, ordering-sensitive step runs
// under policyMu: the policy decision, the ticket (version) assignment via
// Store.EnqueueApply, and the staleness and wait accounting derived from
// them. The gradient application itself happens on the store's persistent
// per-shard applier goroutines, so pushes from N workers overlap — shard i
// of push A applies concurrently with shard j of push B, and queued pushes
// coalesce into shared optimizer steps. Paradigm semantics survive because
// release delivery is gated, not the application: every release decision is
// queued to a sequencer that waits until the store's applied version reaches
// what was reserved at decision time before sending a single OK (a BSP
// round's updates are therefore all visible before any worker is released,
// exactly as when the application ran under the lock).
type Server struct {
	// sessionLayer is the membership mechanics shared with the relay (accept,
	// dispatch, the session table, writers, the lease and stop sweeps); the
	// methods below named by tier are what the root plugs into it.
	sessionLayer
	cfg ServerConfig
	// compression is cfg.Compression in normalized form, the single source
	// of truth for what the wire speaks.
	compression compress.Config
	hbTimeout   time.Duration

	// guard screens pushes for anomalies and evicts repeat offenders; nil
	// when GuardConfig.Enabled is unset.
	guard *guard
	// fullWindow is a windowed robust aggregator's window, the worker count
	// (0 when the classic per-push pipeline runs). As workers finish or depart
	// for good the server shrinks the store's live window below it, so a
	// thinning cohort never leaves partial windows waiting out the watchdog.
	fullWindow int
	// regionOnce shares one generation region with the store (share), and
	// shared records that it did, for Stop to take it back.
	regionOnce sync.Once
	shared     bool

	mu sync.Mutex
	// joined records every worker slot that registered at least once.
	joined   map[int]bool
	finished map[int]bool
	// routes maps worker slots joined through an aggregation relay to the
	// trunk session carrying them: such workers have no session of their own,
	// so presence checks (completion, window shrinking), release delivery and
	// the check that a frame speaks for a slot consult the route instead
	// (carrier). A worker is either routed or directly sessioned, never both.
	routes map[int]*session
	// epochs counts each slot's admissions. A release is stamped with the
	// epoch it was decided in and dies if the slot was re-admitted since: the
	// session it is pinned to does not show a routed worker's rejoin, because
	// the trunk outlives its children.
	epochs []uint64
	// departedAt records when an unfinished worker's session last ended; a
	// worker inside the rejoin grace window (one heartbeat timeout) is
	// treated as "coming back", not gone, by elastic completion.
	departedAt map[int]time.Time
	done       int
	// allDoneClosed latches the completion broadcast.
	allDoneClosed bool
	ckptErr       error
	stopOnce      sync.Once
	allDone       chan struct{}

	// releases feeds the release sequencer: decisions enter in policyMu
	// order (enqueued while holding it), each gated on the pipeline depth
	// reserved at decision time, so OKs leave in decision order once the
	// updates they depend on are visible.
	releases chan releaseBatch

	// reg is the metrics registry (cfg.Metrics or a private one), sm the
	// resolved instrument bundle, tracer the sampled push-lifecycle tracer
	// (nil when disabled). The registry's atomics are the only counters the
	// server keeps: the public accessors, the end-of-run summary and the
	// /statusz snapshot all read the same series a /metrics scrape exports.
	reg    *obs.Registry
	sm     *serverMetrics
	tracer *obs.PushTracer

	// policyMu serializes membership and push handling: the policy decision,
	// the ticket assignment that orders the update, the metrics derived from
	// them, and the choice of workers to release. prefetch holds, per slot,
	// whether the push awaiting its release asked for the next weights with
	// it (transport.Message.Prefetch, offersPrefetch); resolve moves it into
	// the release.
	policyMu sync.Mutex
	pushedAt map[int]time.Time
	prefetch []bool

	// cluster is the coordinator's live group map; replicaSeq hands out the
	// negative session keys the kinds that hold no worker slot (replicas,
	// trunks) live under; zeroGrad is the shared placeholder gradient a coordinator
	// applies for metadata-only pushes (appliers only read gradients, so
	// sharing is safe).
	cluster    clusterState
	replicaSeq atomic.Int64
	zeroGrad   []*tensor.Tensor

	// tree is the aggregation-tree layout advertised to workers: the child
	// ranges each registered relay covers (tree.go). Advisory — actual routing
	// follows the joins workers perform — but it is what keeps re-parenting
	// after a relay death deterministic.
	tree treeState

	// ln is the listener Start serves, closed first by Stop; restored
	// records that Start resumed from a checkpoint.
	ln       transport.Listener
	restored bool
	// failed closes when a data server or backup suffers a fatal loss
	// (failErr says which); promoted latches a backup's completed promotion;
	// bg counts the member loops Stop waits for.
	failed   chan struct{}
	failOnce sync.Once
	failErr  error
	promoted atomic.Bool
	bg       sync.WaitGroup

	// ckptBusy limits checkpoint saves to one in flight.
	ckptBusy atomic.Bool
	// ckptMu serializes checkpoint writes: an async interval save that
	// snapshotted older state must not land its rename after the final save
	// from Stop.
	ckptMu sync.Mutex
}

// NewServer returns a parameter server over the store cfg carries, not yet
// serving. Start stands a role up on a listener; NewServer is the flat
// server's core, for callers (tests) that build the store themselves.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("ps: server needs a positive worker count, got %d", cfg.Workers)
	}
	if cfg.Policy == nil || cfg.Store == nil {
		return nil, fmt.Errorf("ps: server needs a policy and a store")
	}
	if cfg.Policy.NumWorkers() != cfg.Workers {
		return nil, fmt.Errorf("ps: policy coordinates %d workers, server expects %d",
			cfg.Policy.NumWorkers(), cfg.Workers)
	}
	opts, err := cfg.Options.Normalized()
	if err != nil {
		return nil, err
	}
	cfg.Options = opts
	// Install the aggregation strategy before any push can reach the store.
	// Windowed robust kinds aggregate over the full cohort: the order
	// statistics need the honest majority in-window to out-vote an attacker.
	window := 0
	if cfg.Aggregator.Windowed() {
		window = cfg.Workers
	}
	if cfg.Aggregator.Kind != AggSum {
		if err := cfg.Store.SetAggregator(cfg.Aggregator, window); err != nil {
			return nil, err
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	hbTimeout := cfg.HeartbeatTimeout
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	trace := cfg.Trace
	if trace.Every == 0 {
		trace.Every = DefaultTraceEvery
	}
	tracer := obs.NewPushTracer(trace)
	sm := newServerMetrics(reg, cfg.Workers)
	s := &Server{
		cfg:         cfg,
		compression: cfg.Compression,
		guard:       newGuard(cfg.Guard, cfg.Workers, sm),
		fullWindow:  window,
		hbTimeout:   hbTimeout,
		joined:      make(map[int]bool),
		epochs:      make([]uint64, cfg.Workers),
		finished:    make(map[int]bool),
		departedAt:  make(map[int]time.Time),
		routes:      make(map[int]*session),
		allDone:     make(chan struct{}),
		failed:      make(chan struct{}),
		releases:    make(chan releaseBatch, 256),
		pushedAt:    make(map[int]time.Time),
		prefetch:    make([]bool, cfg.Workers),
		reg:         reg,
		sm:          sm,
		tracer:      tracer,
	}
	s.bind(s, clock, map[transport.MessageType]func(transport.Conn, transport.Message){
		transport.MsgClusterMap:     s.handleClusterMap,
		transport.MsgServerAnnounce: s.handleServerAnnounce,
		transport.MsgPromote:        s.handlePromote,
	})
	if cfg.Cluster.Role == RoleCoordinator {
		// Metadata-only pushes carry no payload; the policy still needs
		// EnqueueApply to assign the ticket and advance the version, so a
		// shared zero gradient matching the placeholder store stands in.
		snap, _ := cfg.Store.Snapshot()
		s.zeroGrad = make([]*tensor.Tensor, len(snap))
		for i, p := range snap {
			s.zeroGrad[i] = tensor.New(p.Shape()...)
		}
		reg.GaugeFunc("dssp_cluster_map_version",
			"Coordinator cluster-map version: bumped by every announce and promotion.",
			func() float64 {
				s.cluster.mu.Lock()
				defer s.cluster.mu.Unlock()
				return float64(s.cluster.mapVersion)
			})
		reg.GaugeFunc("dssp_cluster_servers",
			"Data servers currently in the coordinator's cluster map.",
			func() float64 {
				s.cluster.mu.Lock()
				defer s.cluster.mu.Unlock()
				return float64(len(s.cluster.entries))
			})
	}
	// The store carries the apply-pipeline instrumentation only when serving
	// (bare stores stay unmetered).
	cfg.Store.instrument(newStoreMetrics(reg), tracer)
	// Liveness gauges are evaluated at scrape time, so they cost nothing
	// between scrapes.
	reg.GaugeFunc("dssp_sessions_active",
		"Worker sessions currently registered.",
		func() float64 { return float64(len(s.sessions.list())) })
	reg.GaugeFunc("dssp_workers_finished",
		"Worker slots that reported Done.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.done) })
	reg.GaugeFunc("dssp_tree_relays",
		"Aggregation relays currently registered on this server.",
		func() float64 {
			s.tree.mu.Lock()
			defer s.tree.mu.Unlock()
			return float64(len(s.tree.relays))
		})
	reg.GaugeFunc("dssp_tree_routed_workers",
		"Worker slots currently joined through an aggregation relay.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.routes)) })
	reg.GaugeFunc("dssp_store_version",
		"Applied store version: updates visible on every shard.",
		func() float64 { return float64(cfg.Store.Version()) })
	reg.GaugeFunc("dssp_store_reserved",
		"Push tickets accepted into the apply pipeline.",
		func() float64 { return float64(cfg.Store.Reserved()) })
	reg.GaugeFunc("dssp_store_queue_depth",
		"Apply-pipeline backlog: tickets reserved but not yet globally visible.",
		func() float64 { return float64(cfg.Store.QueueDepth()) })
	reg.GaugeFunc("dssp_store_shards",
		"Number of parameter shards.",
		func() float64 { return float64(cfg.Store.Shards()) })
	reg.GaugeFunc("dssp_store_window",
		"Aggregation window currently in effect (1 = per-push pipeline).",
		func() float64 { return float64(cfg.Store.Window()) })
	s.wg.Add(1)
	go s.releaser()
	if cfg.Elastic {
		// An elastic server starts with an empty active set: policies assume
		// every slot participates from construction, but here membership is
		// what registration says it is. Without this, a restarted server
		// would wait on phantom workers that finished against its
		// predecessor and will never join.
		now := clock()
		for w := 0; w < cfg.Workers; w++ {
			cfg.Policy.OnLeave(core.WorkerID(w), now)
		}
		s.wg.Add(1)
		// A departure inside the rejoin grace window defers completion; nothing
		// else re-evaluates it once the window elapses, so the sweep does.
		go s.leaseMonitor(hbTimeout, s.checkAllDone)
	}
	return s, nil
}

// Stop shuts the server down: the listener Start served closes first, so
// reconnecting workers dial a successor rather than this dying server; every
// live session ends and every connection is closed — a worker blocked on a
// release sees the failure immediately and can reconnect instead of hanging on
// a half-dead socket, and a data server parked on its announce connection sees
// its coordinator go at once; a data server's or backup's own loops stop and
// are waited for; and pending work is abandoned. When checkpointing is
// configured a final checkpoint is written before Stop returns. It is safe to
// call multiple times.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		// A share under way finishes first, and none starts after: the
		// listener's region must not go while the store is moving into it.
		s.regionOnce.Do(func() {})
		if s.ln != nil {
			_ = s.ln.Close()
		}
		s.shutdown()
		s.bg.Wait()
		// Drain the apply pipeline so the final checkpoint holds every
		// accepted update, then park the store's applier goroutines.
		s.cfg.Store.Close()
		if s.cfg.Checkpoint.Enabled() {
			s.saveCheckpoint()
		}
		if s.shared {
			s.cfg.Store.unshareRegion()
		}
	})
}

// saveCheckpoint writes one checkpoint, serialized against concurrent saves
// so the directory always ends up holding the newest snapshot taken: the
// store version only moves forward, each save snapshots at call time, and
// the mutex forces their renames into call order.
func (s *Server) saveCheckpoint() {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	start := time.Now()
	bytes, err := s.cfg.Store.saveCheckpoint(s.cfg.Checkpoint.Dir)
	s.sm.ckptSeconds.Observe(time.Since(start).Seconds())
	s.sm.ckptTotal.Inc()
	s.sm.ckptBytes.Add(uint64(bytes))
	if err != nil {
		s.sm.ckptErrors.Inc()
		s.sm.ckptFailed.Set(1)
	} else {
		s.sm.ckptFailed.Set(0)
	}
	s.recordCheckpointErr(err)
}

// AllWorkersDone returns a channel that is closed once training is complete:
// every worker slot sent MsgDone, or — on an elastic server — every worker
// that ever joined has either finished or departed for good (at least one
// must have finished).
func (s *Server) AllWorkersDone() <-chan struct{} { return s.allDone }

// handleRegister services MsgRegister and MsgRejoin. On a fresh connection it
// creates the session the frame asks for — a worker's (admitted into its
// slot), a replica's or a relay trunk's (installed under a private key) —
// starts its writer and acknowledges with the store's current version; it
// returns nil when the registration was rejected. On an established trunk the
// frame is a child worker joining through the relay: the child is admitted
// with the trunk as its carrier and the trunk session is returned unchanged.
func (s *Server) handleRegister(conn transport.Conn, sess *session, msg transport.Message) *session {
	if sess != nil && sess.kind.multiplexes() {
		reply, err := s.admit(msg.Worker, sess, msg)
		if err != nil {
			reply = transport.Message{Type: transport.MsgError, Worker: msg.Worker, Error: err.Error()}
		}
		s.enqueueSession(sess, reply)
		return sess
	}
	reject := func(reason string) *session {
		_ = conn.Send(transport.Message{Type: transport.MsgError, Error: reason})
		return nil
	}
	kind := kindWorker
	switch {
	case msg.Relay:
		kind = kindTrunk
		// Reject configurations whose per-push machinery cannot attribute a
		// pre-summed partial to individual workers.
		if err := s.relayAdmissible(msg); err != nil {
			return reject(err.Error())
		}
	case msg.Replica:
		kind = kindReplica
	}
	if s.coordinator() && !msg.Cluster {
		// A classic worker pointed at the coordinator would train against the
		// placeholder store — reject loudly instead of silently not learning.
		return reject("this server is a cluster coordinator; workers must register in cluster mode (fetch the cluster map)")
	}
	key := msg.Worker
	if !kind.holdsSlot() {
		key = -1 - int(s.replicaSeq.Add(1)-1)
	}
	sess = newSession(kind, key, conn, msg.Type == transport.MsgRejoin, s.clock())
	var reply transport.Message
	var err error
	if kind.holdsSlot() {
		reply, err = s.admit(key, sess, msg)
	} else if err = s.negotiate(key, msg); err == nil {
		s.supersede(key, sess)
		reply = s.registered(key)
	}
	if err != nil {
		return reject(err.Error())
	}
	if !s.open(sess) {
		return reject("server stopped; find its successor")
	}
	if kind == kindTrunk {
		// Publish the relay in the tree layout so workers (and re-parenting
		// children of a dead sibling) can find it.
		s.tree.add(sess, msg.Servers[0].Addr, msg.Servers[0].ShardHi, s.cfg.Workers)
	}
	s.enqueueSession(sess, reply)
	return sess
}

// negotiate checks a registration's codec request against what the server
// speaks: the peer either adopts the server's configuration (compress.Auto)
// or must match it exactly — mixed-codec streams would silently corrupt
// staleness-critical state, so mismatches are rejected before any payload
// flows.
func (s *Server) negotiate(worker int, msg transport.Message) error {
	requested := compress.Config{Codec: msg.Codec, TopK: msg.CodecTopK, Pull: msg.CodecPull}.Normalized()
	if requested.Codec != compress.Auto && !requested.Equal(s.compression) {
		return fmt.Errorf("compression mismatch: worker %d registered with codec %s, server speaks %s",
			worker, requested, s.compression)
	}
	return nil
}

// registered builds the acknowledgement of a registration for session key or
// worker slot worker: the codec in force, the store's shape and version.
func (s *Server) registered(worker int) transport.Message {
	return transport.Message{
		Type:        transport.MsgRegistered,
		Worker:      worker,
		Version:     s.cfg.Store.Version(),
		Codec:       s.compression.Codec,
		CodecTopK:   s.compression.TopK,
		CodecPull:   s.compression.Pull,
		StoreShards: s.cfg.Store.Shards(),
	}
}

// admit enters worker slot into the cohort with carrier as the session its
// traffic rides from now on — the registering worker's own new session, or
// the trunk forwarding a child's registration (the child gets no session of
// its own). Either way the slot's previous carrier is superseded: a live
// session under the slot's key is ended (supersede), so its death cannot count
// the worker out of the cohort it just re-entered, and a route through another
// trunk is overwritten or, for a direct registration, deleted (that relay's
// eventual MsgLeave for the child no longer speaks for the slot and is
// ignored). The slot's admit epoch advances, which voids every release still
// waiting on its apply gate for the slot's previous tenure (sendReleases). The
// policy learns of the join, and the acknowledgement for the carrier to
// deliver is returned.
func (s *Server) admit(slot int, carrier *session, msg transport.Message) (transport.Message, error) {
	if slot < 0 || slot >= s.cfg.Workers {
		return transport.Message{}, fmt.Errorf("worker id %d out of range [0,%d)", slot, s.cfg.Workers)
	}
	if err := s.negotiate(slot, msg); err != nil {
		return transport.Message{}, err
	}
	// One critical section, so completion and window accounting never see the
	// slot between carriers.
	s.mu.Lock()
	s.joined[slot] = true
	s.epochs[slot]++
	if carrier.kind.holdsSlot() {
		s.supersede(slot, carrier)
		delete(s.routes, slot)
	} else {
		s.supersede(slot, nil)
		s.routes[slot] = carrier
		s.sm.treeChildJoins.Inc()
	}
	s.mu.Unlock()
	// A rejoin restores the slot to the pushing cohort; re-derive the window.
	s.shrinkWindow()

	now := s.clock()
	s.policyMu.Lock()
	if msg.Type == transport.MsgRejoin {
		s.sm.rejoins.Inc()
	}
	s.prefetch[slot] = false
	decision := s.cfg.Policy.OnJoin(core.WorkerID(slot), now)
	s.queueReleases(releaseBatch{targets: s.resolve(nil, decision.Release, now), gate: s.cfg.Store.Reserved()})
	s.policyMu.Unlock()
	if s.guard != nil {
		s.guard.observeRegister(slot)
	}
	reply := s.registered(slot)
	reply.Prefetch = s.offersPrefetch(carrier)
	return reply, nil
}

// offersPrefetch reports whether pushes on sess may carry
// transport.Message.Prefetch, which its Registered reply states: only a
// worker's own session on a flat server. Every other session — a trunk,
// whose replies its relay demultiplexes, and any session on a coordinator or
// data server, whose Weights are not the whole model behind the release —
// has a flagged push refused.
func (s *Server) offersPrefetch(sess *session) bool {
	return sess.kind.holdsSlot() && s.cfg.Cluster.Role == ""
}

// prefetchRefused is the Error a flagged push gets on a session that was not
// offered Prefetch, at a server or a relay.
const prefetchRefused = "this session was not offered Prefetch"

// carrier returns the session worker slot w's traffic rides — the worker's
// own, else the trunk routing it — with the slot's admit epoch, or nil for a
// slot that is absent or out of range (so a negative replica or trunk key
// never resolves to a carrier).
func (s *Server) carrier(w int) (*session, uint64) {
	if w < 0 || w >= s.cfg.Workers {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions.get(w); sess != nil {
		return sess, s.epochs[w]
	}
	return s.routes[w], s.epochs[w]
}

// handleLeave services MsgLeave and reports whether the session ended with
// it: a worker's or replica's own leave does; on a trunk the frame forwards
// the departure of the one routed child it names, and the trunk stays up for
// the siblings.
func (s *Server) handleLeave(sess *session, msg transport.Message) (ended bool) {
	if !sess.kind.multiplexes() {
		s.leave(sess)
		return true
	}
	if s.unroute(sess, msg.Worker) {
		s.depart([]int{msg.Worker}, s.clock())
	}
	return false
}

// unroute ends trunk's carriage of slot w and reports whether it held it.
// Check and removal are one step, which is what makes a stale forward
// harmless: a child that already re-parented (directly or under another
// relay) is no longer this trunk's to remove.
func (s *Server) unroute(trunk *session, w int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.routes[w] != trunk {
		return false
	}
	delete(s.routes, w)
	s.sm.treeChildLeaves.Inc()
	return true
}

// departed takes what a session that just left the table carried out of the
// cohort: a worker's own slot, every child a dead trunk routed (the layout
// drops the relay first, so a child that refetches it immediately re-parents
// somewhere live), nothing for a replica, which never entered policy or
// completion accounting.
func (s *Server) departed(sess *session) {
	var slots []int
	switch sess.kind {
	case kindWorker:
		slots = []int{sess.worker}
	case kindTrunk:
		s.tree.remove(sess)
		// Ascending, so the sweep's OnLeave order is deterministic.
		for w := 0; w < s.cfg.Workers; w++ {
			if s.unroute(sess, w) {
				slots = append(slots, w)
			}
		}
	}
	s.depart(slots, s.clock())
}

// depart takes slots, whose carrier just let go of them, out of the cohort:
// each is told to the policy as a departure — releasing any peers it unblocks,
// so barrier paradigms never deadlock on a crash — and enters the rejoin grace
// window. A worker that disconnects after reporting Done is an orderly exit,
// not a departure worth counting: the metric should distinguish churn from
// healthy runs.
func (s *Server) depart(slots []int, now time.Time) {
	for _, w := range slots {
		s.mu.Lock()
		finished := s.finished[w]
		if !finished {
			s.departedAt[w] = now
		}
		s.mu.Unlock()
		s.policyMu.Lock()
		if !finished {
			s.sm.departures.Inc()
		}
		decision := s.cfg.Policy.OnLeave(core.WorkerID(w), now)
		delete(s.pushedAt, w)
		s.prefetch[w] = false
		// A departure can complete a barrier whose updates are still in the
		// apply pipeline; its releases gate like any push's.
		s.queueReleases(releaseBatch{targets: s.resolve(nil, decision.Release, now), gate: s.cfg.Store.Reserved()})
		s.policyMu.Unlock()
	}
	s.shrinkWindow()
	s.checkAllDone()
}

// releaseTarget is one resolved delivery: the session the reply rides — the
// worker's own for a direct worker, its relay trunk for a routed one — the
// worker slot the reply names (the trunk demultiplexes by it), the slot's
// admit epoch at decision time, and whether the released push asked for the
// next weights behind its OK.
type releaseTarget struct {
	sess     *session
	worker   int
	epoch    uint64
	prefetch bool
}

// releaseBatch is one release decision queued for delivery: the sessions to
// send OK to (targets, resolved at decision time by resolve), the pipeline
// depth (Store.Reserved) at decision time that must be applied before any of
// them goes out, and — when the triggering push failed — the pushers that get
// the error instead of their OK (errs: a worker's own session, or trunk +
// child for every child whose gradients a failed partial lost). ticket is the
// push's last version, for checkpoint-interval accounting and trace
// completion, and tickets how many it was issued, (ticket-tickets, ticket];
// both 0 when the batch did not apply an update. pushed is the push message
// whose receive buffer the enqueued gradients alias: its lease ends once the
// gate has passed — the store has applied the tickets and reads the buffer no
// more — and is left to the garbage collector if the batch never gets that far
// (server stopped).
type releaseBatch struct {
	targets []releaseTarget
	gate    int64
	errs    []releaseTarget
	err     error
	ticket  int64
	tickets int64
	pushed  transport.Message
	// queuedAt stamps the decision time for the release-lag histogram (how
	// long the sequencer held the batch waiting on its apply gate); the zero
	// value skips the observation.
	queuedAt time.Time
	// pull, on a data server, is a Pull the batch answers once its gate has
	// passed (handlePull).
	pull pendingPull
}

// pendingPull is one pull to answer: the session it came on, the version it
// named (a replica's; 0 from a worker) and when it arrived.
type pendingPull struct {
	sess  *session
	named int64
	at    time.Time
}

// releaser is the release sequencer: it delivers queued release decisions in
// the order they were made, each only after the store's applied version has
// reached the batch's gate. This is what preserves paradigm semantics now
// that gradient application happens off policyMu — a worker released by a
// decision can never pull weights missing an update that decision accounted
// for, because its OK is held until those updates are visible on every
// shard.
func (s *Server) releaser() {
	defer s.wg.Done()
	for {
		select {
		case b := <-s.releases:
			if b.gate > 0 && !s.cfg.Store.WaitApplied(b.gate, s.stopped) {
				return // server stopped while waiting
			}
			if !b.queuedAt.IsZero() {
				s.sm.releaseLag.Observe(time.Since(b.queuedAt).Seconds())
			}
			// Before the OKs: the worker's next push then finds its
			// connection's buffer free again.
			b.pushed.Release()
			s.sendReleases(b)
			if b.pull.sess != nil {
				s.answerPull(b.pull)
			}
			for t := b.ticket - b.tickets + 1; t <= b.ticket; t++ {
				s.tracer.Released(t, time.Now())
			}
			for _, e := range b.errs {
				// The erroring pusher gets the error, not an OK that would let
				// it train on as if the push had landed — on the session that
				// carried the push; a successor session never sees a stale
				// error. Only a multiplexing session's replies name the child
				// they are for.
				msg := transport.Message{Type: transport.MsgError, Error: b.err.Error()}
				if e.sess.kind.multiplexes() {
					msg.Worker = e.worker
				}
				s.deliver(e, msg)
			}
			if b.ticket > 0 {
				s.maybeCheckpoint(b.ticket)
			}
		case <-s.stopped:
			return
		}
	}
}

// resolve turns a release decision into deliveries, appended to targets: each
// released worker's wait since its push is added to its
// dssp_worker_wait_seconds slot (a clock that stepped back adds nothing) and
// the worker resolved to the session carrying it now, taking along the
// prefetch its push asked for. Callers hold policyMu,
// which is what makes the resolution exact: membership hooks run under the
// same lock, so the sessions captured here are precisely the ones the
// decision accounted for. Pinning sessions
// now, instead of re-resolving worker IDs at send time, means a worker that
// leaves and rejoins while the batch waits on its apply gate can never
// receive a stale OK on its successor session — enqueueSession drops messages
// for ended sessions. A routed worker's OK travels on its trunk, tagged with
// the worker it names, and the relay delivers it to the child; the trunk does
// not end when the child does, so there the pinned admit epoch is what kills
// the stale reply (deliver).
func (s *Server) resolve(targets []releaseTarget, release []core.WorkerID, now time.Time) []releaseTarget {
	for _, id := range release {
		w := int(id)
		if at, ok := s.pushedAt[w]; ok {
			if d := now.Sub(at); d > 0 {
				s.sm.waits[w].Add(d.Seconds())
			}
			delete(s.pushedAt, w)
		}
		if sess, epoch := s.carrier(w); sess != nil {
			targets = append(targets, releaseTarget{sess: sess, worker: w, epoch: epoch, prefetch: s.prefetch[w]})
		}
		s.prefetch[w] = false
	}
	return targets
}

// queueReleases hands a batch to the sequencer. Callers hold policyMu, which
// is what keeps the queue in decision order and the gates monotone; a pull's
// batch needs no place in that order (handlePull). A full queue blocks the
// caller, never the sequencer; batches that would deliver nothing are
// dropped at the door.
func (s *Server) queueReleases(b releaseBatch) {
	if len(b.targets) == 0 && len(b.errs) == 0 && b.ticket == 0 && b.pull.sess == nil {
		return
	}
	select {
	case s.releases <- b:
	case <-s.stopped:
	}
}

// sendReleases delivers the batch's OK signals — the single implementation
// of release delivery for push, join and leave decisions. A target whose push
// asked for a prefetch gets, right behind its OK on the same session, the
// reply its next Pull would get: answerPull's, built now, after the batch's
// gate, so it holds every update the release accounted for (a data server,
// whose OKs leave before the gate, offers none: offersPrefetch). The batch's
// error carve-out is honored: a pusher whose gradients the failed push lost
// must not receive an OK that would let it train on as if they had landed
// (the releaser sends it the error instead), nor weights. errs is at most
// relay-fanout long, so a linear scan beats building a set.
func (s *Server) sendReleases(b releaseBatch) {
deliver:
	for _, t := range b.targets {
		for _, e := range b.errs {
			if e.sess == t.sess && e.worker == t.worker && e.epoch == t.epoch {
				continue deliver
			}
		}
		if s.deliver(t, transport.Message{Type: transport.MsgOK, Worker: t.worker}) {
			s.sm.releases.Inc()
			if t.prefetch {
				s.answerPull(pendingPull{sess: t.sess, at: time.Now()})
			}
		}
	}
}

// deliver queues a push's reply on the session it was resolved to, unless the
// slot was re-admitted since: the worker the reply was for left, and whoever
// holds the slot now — on a new session, or as a new child of the same trunk —
// has not made that push.
func (s *Server) deliver(t releaseTarget, msg transport.Message) bool {
	s.mu.Lock()
	current := s.epochs[t.worker] == t.epoch
	s.mu.Unlock()
	if current {
		s.enqueueSession(t.sess, msg)
	}
	return current
}

// handlePush accepts a push and queues the policy's release decision. A push
// stands for one logical push per entry: a worker's own is a partial of one,
// a relay's forwarded partial carries the coordinate-wise sum of its entries'
// gradients. The policy sees every entry individually (OnPush per entry, in
// entry order, under one policyMu hold — indistinguishable from the workers
// pushing back-to-back), and the store reserves one ticket per accepted entry
// via the weighted enqueue, so the version advances by their count and
// staleness is measured against each entry's own base version.
//
// Decoding the wire tensors — including codec decompression — happens outside
// policyMu so payload conversion from many workers overlaps. Under the lock
// only the ordering-sensitive step runs: the policy decisions, the ticket
// assignment (the enqueue hands the gradients to the per-shard applier
// pipeline without waiting), and the staleness accounting, which observes the
// tickets — the versions the pushes land at — and therefore matches the
// serial path exactly. The release decision is queued to the sequencer gated
// on everything reserved so far, so no released worker can outrun the
// application of the updates its release depends on. A data server sends its
// OKs at once instead, and makes its pulls wait (acksOnTicket).
//
// An entry whose slot no longer rides this session — the worker re-registered
// elsewhere, or was evicted, while the payload was in flight — is void to the
// policy, which already counted the worker out: no OnPush, no OK. A push with
// no live entry is void as a whole. In a partial that still has live entries
// a void entry's values are already in the sum, so it keeps its ticket (the
// at-least-once DESIGN.md §11 documents).
//
// A dense push, and an fp16 one where the store steps from half sources, is
// applied straight out of the receive buffer msg leases, so the lease travels
// with the tickets: the sequencer ends it when the gate has passed. A push
// that never reaches the store — rejected, dropped, failed, or void —
// releases it on the spot.
func (s *Server) handlePush(sess *session, msg transport.Message) {
	reject := func(reason string) {
		msg.Release()
		s.enqueueSession(sess, transport.Message{Type: transport.MsgError, Error: reason})
	}
	if !sess.kind.mayPush() {
		reject("replica sessions are read-only")
		return
	}
	if msg.Prefetch && !s.offersPrefetch(sess) {
		reject(prefetchRefused)
		return
	}
	entries, scratch := sess.partial(msg)
	if len(entries) == 0 {
		reject("relay push carries no entries")
		return
	}
	marks := sess.marks[:0]
	for _, e := range entries {
		if e.Worker < 0 || e.Worker >= s.cfg.Workers {
			reject(fmt.Sprintf("push entry names worker %d outside [0,%d)", e.Worker, s.cfg.Workers))
			return
		}
		tr := s.tracer.Sample(e.Worker, e.Iteration)
		if tr != nil {
			tr.Base = e.Version
		}
		marks = append(marks, entryMark{tr: tr})
	}
	sess.marks = marks
	abandon := func(reason string) {
		for i := range marks {
			s.tracer.Abandon(marks[i].tr, reason)
		}
		msg.Release()
	}

	decodeStart := time.Now()
	var grads []*tensor.Tensor
	var half []compress.Packed
	var decodeErr error
	switch {
	case s.coordinator() && len(msg.Tensors) == 0 && len(msg.Packed) == 0:
		// Metadata-only cluster push: the bytes went to the data servers; the
		// coordinator applies a shared zero gradient so the ticket/version
		// machinery — and everything staleness is defined against — runs
		// exactly as on a classic server.
		grads = s.zeroGrad
	case s.guard == nil && msg.Codec == compress.FP16 && s.compression.Codec == compress.FP16 && s.cfg.Store.stepsHalf():
		// An fp16 push is stepped from its payload as it arrived, like a
		// dense push from its tensors: nothing is decoded, and the lease
		// travels with the tickets. The guard screens decoded gradients.
		half = msg.Packed
	default:
		grads, _, decodeErr = decodePayload(msg, s.compression, scratch)
	}
	s.sm.phaseDecode.Observe(time.Since(decodeStart).Seconds())

	var guardDrop bool
	if s.guard != nil {
		// A guarded server admits no trunks (relayAdmissible), so the push is
		// one worker's own and entries[0] is all of it.
		guardStart := time.Now()
		screened := grads
		if decodeErr != nil {
			screened = nil
		}
		verdict := s.guard.checkPush(entries[0].Worker, entries[0].Version, s.cfg.Store.Reserved(), screened)
		s.sm.phaseGuard.Observe(time.Since(guardStart).Seconds())
		if verdict.evict {
			// Strikes exhausted: the worker departs through the same path as a
			// lease eviction — the policy counts it out and releases any peers
			// its absence unblocks, and the closed connection tells the worker.
			abandon("guard")
			s.leave(sess)
			_ = sess.conn.Close()
			return
		}
		guardDrop = verdict.drop
	}
	for i := range marks {
		if tr := marks[i].tr; tr != nil {
			tr.ScreenedAt = time.Now()
		}
	}

	now := s.clock()
	// The policy phase is timed from before the lock, so contention on
	// policyMu — the serialization cost the pipelined design exists to
	// shrink — shows up in the histogram rather than hiding.
	policyStart := time.Now()
	s.policyMu.Lock()
	var targets []releaseTarget
	accepted, void := 0, 0
	for i, e := range entries {
		m := &marks[i]
		carrier, epoch := s.carrier(e.Worker)
		if carrier != sess {
			m.void = true
			void++
			s.tracer.Abandon(m.tr, "superseded")
			m.tr = nil
			continue
		}
		m.epoch = epoch
		decision := s.cfg.Policy.OnPush(core.WorkerID(e.Worker), now)
		s.pushedAt[e.Worker] = now
		s.prefetch[e.Worker] = msg.Prefetch
		targets = s.resolve(targets, decision.Release, now)
		if guardDrop {
			// The gradients never reach the store, but the policy has
			// counted the push, so its releases still flow — a barrier
			// paradigm must not deadlock on a rejected payload. The guard
			// counted the rejection when it flagged the push.
			s.tracer.Abandon(m.tr, "guard")
			m.tr = nil
			continue
		}
		accepted++
	}
	if void == len(entries) {
		s.policyMu.Unlock()
		abandon("superseded")
		return
	}

	var pushErr error
	var errs []releaseTarget
	var ticket, tickets int64
	if accepted > 0 {
		tickets = int64(accepted + void)
		switch pushErr = decodeErr; {
		case pushErr != nil:
		case half != nil:
			ticket, pushErr = s.cfg.Store.enqueueHalf(half, tickets)
		default:
			ticket, pushErr = s.cfg.Store.EnqueueApplyWeighted(grads, tickets)
		}
		if pushErr != nil {
			tickets = 0
		} else if sess.kind.multiplexes() {
			s.sm.treePartials.Inc()
			s.sm.treePartialSize.Observe(float64(tickets))
		}
		// The push's tickets are (ticket-tickets, ticket]; walk them in entry
		// order so each logical push's staleness observes the version it
		// landed at itself.
		t := ticket - tickets
		for i, e := range entries {
			m := &marks[i]
			if pushErr != nil {
				// The policy has already counted this push and may have decided
				// to release other workers — their releases must still go out
				// or a barrier paradigm deadlocks on a single bad payload. Only
				// the pusher learns of the failure.
				if !m.void {
					errs = append(errs, releaseTarget{sess: sess, worker: e.Worker, epoch: m.epoch})
					s.prefetch[e.Worker] = false
				}
				s.tracer.Abandon(m.tr, "error")
				continue
			}
			t++
			s.sm.pushes.Inc()
			stale := int(t - 1 - e.Version)
			if stale < 0 {
				// A base ahead of the push's own ticket: cluster workers report
				// the min data-server version, and fragments apply before the
				// metadata push lands on the coordinator; a worker that lies
				// about its clock claims any version it likes.
				stale = 0
			}
			s.sm.staleness.Observe(float64(stale))
			if float64(stale) > s.sm.stalenessMax.Value() {
				s.sm.stalenessMax.Set(float64(stale))
			}
			if tr := m.tr; tr != nil {
				tr.Ticket = t
				tr.Staleness = stale
				tr.EnqueuedAt = time.Now()
				s.tracer.Track(tr)
			}
		}
	}

	batch := releaseBatch{
		targets:  targets,
		gate:     s.cfg.Store.Reserved(),
		errs:     errs,
		err:      pushErr,
		ticket:   ticket,
		tickets:  tickets,
		queuedAt: time.Now(),
	}
	if ticket > 0 {
		batch.pushed = msg
	}
	// A data server's OK says the fragment holds its ticket, not that it is
	// applied: its pulls wait for the applies instead (handlePull). The
	// sequencer still ends the push's lease at the gate.
	var early releaseBatch
	if s.acksOnTicket() && pushErr == nil {
		early.targets, batch.targets = batch.targets, nil
	}
	s.queueReleases(batch)
	s.policyMu.Unlock()
	if ticket == 0 {
		msg.Release()
	}
	s.sm.phasePolicy.Observe(time.Since(policyStart).Seconds())
	s.sendReleases(early)
}

// acksOnTicket reports whether this server acknowledges a push once it holds
// its ticket rather than once it is applied: a data server's, and a backup's
// once promoted, PROTOCOL.md §5b. Every other server releases through the
// sequencer, after the apply gate.
func (s *Server) acksOnTicket() bool {
	r := s.cfg.Cluster.Role
	return r == RoleData || r == RoleBackup
}

// maybeCheckpoint writes a checkpoint when the applied version crosses the
// configured interval. The save runs on its own goroutine — checkpointing
// must never stall push handling — with at most one save in flight; an
// interval tick arriving mid-save is skipped (the next one covers it).
func (s *Server) maybeCheckpoint(version int64) {
	every := s.cfg.Checkpoint.Every
	if !s.cfg.Checkpoint.Enabled() || every <= 0 || version%int64(every) != 0 {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.ckptBusy.Store(false)
		s.saveCheckpoint()
	}()
}

// recordCheckpointErr remembers the most recent checkpoint failure.
func (s *Server) recordCheckpointErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	s.ckptErr = err
	s.mu.Unlock()
}

// CheckpointError returns the most recent checkpoint write failure, if any.
// Checkpoint saves are best-effort: a failure never interrupts training.
func (s *Server) CheckpointError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptErr
}

// decodePayload converts a push message's payload into gradient tensors,
// decompressing packed payloads under speaks, the codec the hop negotiated,
// and reports the payload's size in Client.Traffic units. A compressed push
// arriving on an uncompressed hop (or vice versa) is a protocol violation —
// registration negotiates the codec — and fails the push.
//
// The decode reuses buffers wherever ownership allows: packed payloads
// decompress into *scratch when the caller supplies one (a lock-step sender's
// previous tensors are no longer needed; a pipelining sender passes nil and
// gets fresh ones, valid however many payloads are in flight), after which
// nothing aliases the message's receive buffer and its lease ends; a dense
// push's tensors alias the message's receive buffer rather than copy it, and
// the caller keeps the lease until it is done reading. Consumers only read
// gradients, so neither reuse can leak into published weights.
func decodePayload(msg transport.Message, speaks compress.Config, scratch *[]*tensor.Tensor) ([]*tensor.Tensor, int64, error) {
	compressed := msg.Codec != "" || len(msg.Packed) > 0
	switch {
	case compressed && (!speaks.Enabled() || msg.Codec != speaks.Codec):
		return nil, 0, fmt.Errorf("push compressed with codec %q but this hop speaks %s", msg.Codec, speaks)
	case compressed:
		var bytes int64
		for _, p := range msg.Packed {
			bytes += int64(p.WireSize())
		}
		var reuse []*tensor.Tensor
		if scratch != nil {
			reuse = *scratch
		}
		grads, err := compress.DecompressAllReuse(msg.Packed, reuse)
		msg.Release()
		if err != nil {
			return nil, 0, err
		}
		if scratch != nil {
			*scratch = grads
		}
		return grads, bytes, nil
	case speaks.Enabled():
		return nil, 0, fmt.Errorf("uncompressed push but this hop speaks %s", speaks)
	default:
		grads, err := transport.FromWireOwned(msg.Tensors)
		return grads, wireTensorBytes(msg.Tensors), err
	}
}

// handlePull answers a pull — as answerPull does a push's prefetch, called by
// the release sequencer — with the current weights in one Weights frame:
// every store shard's tensors, in global order, labelled with the lowest
// version among the generations the reply pins — the version every shard of
// it holds, pushes that landed while a shard was being pinned included. Each
// shard's part references its copy-on-write snapshot — the
// server copies nothing — pinned until the session's writer has sent the
// reply (Send is done with the payload when it returns: transport.Conn), a
// bounded borrow the applier's buffer reuse sees through. Taking a reference
// holds no lock past the grab, so pulls from different workers, and a pull
// overlapping an in-flight push, proceed concurrently. The transport's one
// copy lands in a buffer of the worker's own, keeping workers isolated — or,
// where the worker shares the server's host and the generations lie in the
// region the server shares (share), nothing is copied: the reply names them,
// the worker reads them through a read-only mapping, and the region keeps
// them from being recycled until the worker releases the reply (DESIGN.md
// §4b).
//
// With pull compression negotiated, the reply instead carries every shard's
// packed form from the store's per-shard cache: the quantization pass runs
// once per shard update, not once per pull, so fan-out to many workers
// stays cheap.
//
// A pull naming the version of the weights its sender already holds (a
// replica's; workers name none) is answered, while the store is still at that
// version, with one payload-free Unchanged frame instead. Published weights
// change only by applies, which advance the version (Install refuses a version
// that is not newer, and a checkpoint is restored before serving), so the
// sender's copy, which holds pushes 1..v on every shard, is still a correct
// copy at v. Only a puller that named a version can get an Unchanged reply.
//
// A data server acknowledges a fragment before applying it (acksOnTicket), so
// the sequencer answers its pulls: after a gate on every ticket reserved when
// the pull arrived, and after the leases of the pushes behind those tickets
// have ended. The pull needs no place in decision order: its gate is all it
// waits for. It does not force a partial aggregation window open: a robust
// window is sized to the whole cohort so that its honest majority out-votes
// an attacker, and the window fills or the store's watchdog publishes it.
func (s *Server) handlePull(sess *session, req transport.Message) {
	p := pendingPull{sess: sess, named: req.Version, at: time.Now()}
	if !s.acksOnTicket() {
		s.answerPull(p)
		return
	}
	s.queueReleases(releaseBatch{gate: s.cfg.Store.Reserved(), pull: p})
}

// answerPull builds and queues the reply to p (handlePull).
func (s *Server) answerPull(p pendingPull) {
	sess, worker := p.sess, p.sess.worker
	s.sm.pulls.Inc()
	defer func() { s.sm.pullSeconds.Observe(time.Since(p.at).Seconds()) }()
	if s.guard != nil && sess.kind.holdsSlot() {
		// Only slot holders are in the guard's per-slot clock accounting.
		s.guard.observePull(worker)
	}
	st := s.cfg.Store
	version := st.Version()
	if p.named != 0 && version == p.named {
		s.sm.pullUnchanged.Inc()
		s.enqueueSession(sess, transport.Message{
			Type: transport.MsgWeights, Worker: worker, Version: p.named, Unchanged: true,
		})
		return
	}
	msg := transport.Message{Type: transport.MsgWeights, Worker: worker}
	held := replyPinsPool.Get().(*replyPins)
	if s.compression.Pull && s.compression.Enabled() {
		for i := range st.Shards() {
			packed, pin := st.acquirePacked(i, s.packShardInto)
			held.packed = append(held.packed, packed...)
			held.pins = append(held.pins, pin)
		}
		msg.Codec, msg.Packed = s.compression.Codec, held.packed
	} else {
		for i := range st.Shards() {
			params, gen := st.acquireShard(i)
			held.params = append(held.params, params...)
			held.pins = append(held.pins, &gen.genPin)
		}
		held.wire = transport.ToWireOwnedInto(held.wire, held.params)
		msg.Tensors = held.wire
	}
	msg.Version = held.pins[0].version
	for _, pin := range held.pins[1:] {
		msg.Version = min(msg.Version, pin.version)
	}
	s.enqueueSessionRef(sess, msg, held)
}

// share gives the store the generation region of the first listener that
// offers one: its next generations are allocated there, and a same-host pull
// reply names them instead of carrying them (DESIGN.md §4b).
func (s *Server) share(h transport.RegionHost) {
	s.regionOnce.Do(func() {
		if alloc := h.ShareRegion(nil); alloc != nil {
			s.cfg.Store.shareRegion(alloc)
			s.shared = true
		}
	})
}

// packShardInto is the Store.acquirePacked callback compressing one
// shard's published snapshot with the server's codec (stateless: no error
// feedback on the pull path) into the retired buffers the store recycles.
func (s *Server) packShardInto(dst []compress.Packed, params []*tensor.Tensor) []compress.Packed {
	return compress.PackInto(dst, params, s.compression)
}

// handleDone records the completion of the slot a Done frame on sess is
// about — the session's own for a slot holder, the child the frame names for
// a trunk — provided sess is that slot's carrier. A replica carries nothing,
// and a trunk naming a slot it does not route (out of range, never joined
// through it, since re-parented) speaks for nobody: stale and forged
// forwards alike are ignored.
func (s *Server) handleDone(sess *session, msg transport.Message) {
	worker := msg.Worker
	if sess.kind.holdsSlot() {
		worker = sess.worker
	}
	if carrier, _ := s.carrier(worker); carrier != sess {
		return
	}
	s.mu.Lock()
	if !s.finished[worker] {
		s.finished[worker] = true
		s.done++
	}
	s.mu.Unlock()
	s.shrinkWindow()
	s.checkAllDone()
}

// shrinkWindow adapts the store's aggregation window to the cohort still
// pushing: finished workers and sessions gone past recall never contribute
// again, so a window sized for the full cohort would leave every remaining
// batch to the watchdog. It also flushes, so a partial window the departed
// worker was the missing contributor to publishes now rather than at the
// next tick. Never grows the window beyond the configured one.
func (s *Server) shrinkWindow() {
	if s.fullWindow <= 1 {
		return
	}
	gone := 0
	s.mu.Lock()
	for w := range s.joined {
		if s.finished[w] || (s.sessions.get(w) == nil && s.routes[w] == nil && !s.departedAt[w].IsZero()) {
			gone++
		}
	}
	s.mu.Unlock()
	w := s.fullWindow - gone
	if w < 1 {
		w = 1
	}
	s.cfg.Store.SetWindow(w)
	s.cfg.Store.Flush()
}

// GuardStats snapshots the anomaly guard's accounting (zero when the guard
// is disabled). Safe to call at any time; typically read after the run.
func (s *Server) GuardStats() GuardStats {
	if s.guard == nil {
		return GuardStats{}
	}
	return s.guard.stats()
}

// checkAllDone closes AllWorkersDone when training is complete. The classic
// condition is every worker slot reporting Done. An elastic server also
// completes when every slot that ever joined is finished or has departed
// for good — a permanently gone worker must not keep the server alive —
// provided at least one worker actually finished. "For good" means its
// session has been gone for longer than one heartbeat timeout: a worker
// mid-reconnect (redialing with backoff after a transient failure) must not
// be counted out, so departures inside that grace window defer completion
// and the lease monitor re-checks once the window elapses.
func (s *Server) checkAllDone() {
	complete := false
	s.mu.Lock()
	if !s.allDoneClosed {
		switch {
		case s.done == s.cfg.Workers:
			complete = true
		case s.cfg.Elastic && s.done > 0:
			complete = true
			now := s.clock()
			for w := range s.joined {
				if s.finished[w] {
					continue
				}
				if s.sessions.get(w) != nil || s.routes[w] != nil || now.Sub(s.departedAt[w]) <= s.hbTimeout {
					complete = false
					break
				}
			}
		}
		s.allDoneClosed = complete
	}
	s.mu.Unlock()
	if complete {
		if s.coordinator() {
			// Before AllWorkersDone closes: whatever stops the coordinator
			// when it does cannot close a parked announce connection first.
			s.cluster.endAnnounces()
		}
		close(s.allDone)
	}
}

// Staleness returns the mean and the largest staleness of the updates applied
// so far (the version a push landed at, minus one, minus the version its
// gradient was computed from; clamped at 0), read from dssp_push_staleness
// and dssp_push_staleness_max. Safe to call mid-run; the mean is 0 before
// the first update.
func (s *Server) Staleness() (mean float64, max int) {
	if n := s.sm.staleness.Count(); n > 0 {
		mean = s.sm.staleness.Sum() / float64(n)
	}
	return mean, int(s.sm.stalenessMax.Value())
}

// Waits returns each worker slot's accumulated wait from push to release,
// read from dssp_worker_wait_seconds. Safe to call mid-run.
func (s *Server) Waits() []time.Duration {
	out := make([]time.Duration, len(s.sm.waits))
	for w, g := range s.sm.waits {
		out[w] = time.Duration(g.Value() * float64(time.Second))
	}
	return out
}

// Pushes returns the number of gradient updates applied.
func (s *Server) Pushes() int { return int(s.sm.pushes.Value()) }

// Dropped returns the number of pushed updates the anomaly guard rejected
// without reaching the store.
func (s *Server) Dropped() int { return int(s.sm.droppedGuard.Value()) }

// Rejoins returns the number of MsgRejoin registrations accepted.
func (s *Server) Rejoins() int { return int(s.sm.rejoins.Value()) }

// Departures returns the number of sessions deregistered — connection
// failures, graceful leaves and lease evictions combined.
func (s *Server) Departures() int { return int(s.sm.departures.Value()) }

// Registry returns the metrics registry the server's instrumentation lives
// on (the one passed via ServerConfig.Metrics, or the private one created in
// its absence). Scrape it with obs.Registry.WriteProm or snapshot it with
// Snapshot.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Traces returns the completed push-lifecycle traces, oldest first (nil when
// tracing is disabled).
func (s *Server) Traces() []obs.PushTrace { return s.tracer.Traces() }

// SessionStatus describes one live worker session in a Status snapshot.
type SessionStatus struct {
	Worker   int       `json:"worker"`
	Rejoined bool      `json:"rejoined"`
	LastSeen time.Time `json:"last_seen"`
}

// ServerStatus is a point-in-time introspection snapshot of the server — the
// payload /statusz serves and the single consistent source the end-of-run
// summary prints from.
type ServerStatus struct {
	Workers  int  `json:"workers"`
	Elastic  bool `json:"elastic"`
	Finished int  `json:"finished"`

	Version    int64 `json:"version"`
	Reserved   int64 `json:"reserved"`
	QueueDepth int64 `json:"queue_depth"`
	Window     int64 `json:"window"`
	FullWindow int   `json:"full_window,omitempty"`

	Pushes     uint64 `json:"pushes"`
	Dropped    uint64 `json:"dropped"`
	Releases   uint64 `json:"releases"`
	Departures uint64 `json:"departures"`
	Rejoins    uint64 `json:"rejoins"`

	Guard           GuardStats      `json:"guard"`
	CheckpointError string          `json:"checkpoint_error,omitempty"`
	TracesCompleted uint64          `json:"traces_completed,omitempty"`
	Sessions        []SessionStatus `json:"sessions"`
}

// Status snapshots the server's live state for /statusz and end-of-run
// reporting. Counters come from the same registry series /metrics exports;
// the snapshot is internally consistent per field, not atomic across fields.
func (s *Server) Status() ServerStatus {
	st := ServerStatus{
		Workers:         s.cfg.Workers,
		Elastic:         s.cfg.Elastic,
		Version:         s.cfg.Store.Version(),
		Reserved:        s.cfg.Store.Reserved(),
		QueueDepth:      s.cfg.Store.QueueDepth(),
		Window:          s.cfg.Store.Window(),
		FullWindow:      s.fullWindow,
		Pushes:          s.sm.pushes.Value(),
		Dropped:         s.sm.droppedGuard.Value(),
		Releases:        s.sm.releases.Value(),
		Departures:      s.sm.departures.Value(),
		Rejoins:         s.sm.rejoins.Value(),
		Guard:           s.GuardStats(),
		TracesCompleted: s.tracer.Total(),
	}
	if err := s.CheckpointError(); err != nil {
		st.CheckpointError = err.Error()
	}
	s.mu.Lock()
	st.Finished = s.done
	s.mu.Unlock()
	sessions := s.sessions.list()
	st.Sessions = make([]SessionStatus, 0, len(sessions))
	for _, sess := range sessions {
		st.Sessions = append(st.Sessions, SessionStatus{
			Worker:   sess.worker,
			Rejoined: sess.rejoined,
			LastSeen: sess.seen(),
		})
	}
	return st
}
