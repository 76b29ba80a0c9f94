package dssp

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// Wire format names accepted by ServerConfig.Wire and WorkerConfig.Wire
// (the -wire flag on cmd/psserver and cmd/psworker). Both ends of a
// connection must speak the same format; a mismatch fails fast at
// registration with an explicit error instead of hanging either side.
const (
	// WireBinary is the versioned zero-copy binary frame protocol
	// (docs/PROTOCOL.md) — the default.
	WireBinary = string(transport.WireBinary)
	// WireGob is the legacy gob encoding, kept as an escape hatch and for
	// A/B benchmarking against the binary protocol.
	WireGob = string(transport.WireGob)
)

// ServerConfig configures a stand-alone parameter server reachable over TCP
// (used by cmd/psserver). Workers built with RunWorker connect to it.
type ServerConfig struct {
	// Addr is the TCP listen address, e.g. ":7070".
	Addr string
	// Wire selects the TCP wire format, WireBinary or WireGob; empty means
	// WireBinary. Workers must be configured to match.
	Wire string
	// Workers is the number of workers expected to join.
	Workers int
	// Sync selects the synchronization paradigm.
	Sync Sync
	// Model and Dataset must match the workers' configuration; the server
	// builds the initial global weights from them.
	Model   Model
	Dataset DatasetConfig
	// LearningRate, Momentum and WeightDecay configure the server-side SGD.
	LearningRate float64
	Momentum     float64
	WeightDecay  float64
	// Options is the shared serving surface (sharding, compression,
	// aggregation, guard, elasticity, heartbeat timeout, checkpointing);
	// its fields are embedded and read as they always did
	// (cfg.Compression, cfg.Elastic, ...). DeltaPull and HeartbeatInterval
	// are worker-side knobs and ignored here.
	Options
	// DisableDeltaPull refuses workers' requests for version-gated delta
	// pulls (the default grants them), forcing full weight chunks on every
	// pull — an A/B and debugging knob.
	DisableDeltaPull bool
	// MetricsAddr, when non-empty, starts an admin HTTP listener on that
	// address serving Prometheus metrics (/metrics), liveness (/healthz), a
	// JSON status snapshot with optional push traces (/statusz?traces=1)
	// and pprof (/debug/pprof/). "127.0.0.1:0" picks a free port — read it
	// back with Server.MetricsAddr.
	MetricsAddr string
	// TraceEvery samples one in every TraceEvery pushes for lifecycle
	// tracing; 0 keeps the default (ps.DefaultTraceEvery), negative
	// disables tracing.
	TraceEvery int
	// Seed determines the initial weights; it must match the workers' seed.
	Seed int64
	// Cluster places this server in a multi-server group (DESIGN.md
	// §10): a coordinator that owns the paradigm policy, data servers that
	// own shard ranges, or a backup standing by for one data server. The
	// zero value is a classic standalone server.
	Cluster ClusterOptions
}

// Server is a running TCP parameter server.
type Server struct {
	inner    *ps.Server
	listener transport.Listener
	store    *ps.Store
	spec     nn.ModelSpec
	cfg      TrainConfig
	restored bool
	admin    *obs.AdminServer

	// Cluster state (zero/idle on standalone servers).
	role      string
	wire      string
	failed    chan struct{}
	failOnce  sync.Once
	failErr   error
	stopping  chan struct{}
	stopOnce  sync.Once
	bg        sync.WaitGroup
	promoted  atomic.Bool
	announced atomic.Bool
}

// Addr returns the address the server is listening on.
func (s *Server) Addr() string { return s.listener.Addr() }

// Done returns a channel closed once training is complete: every worker
// reported completion, or — on an elastic server — every live worker did.
func (s *Server) Done() <-chan struct{} { return s.inner.AllWorkersDone() }

// Stop shuts the server down, writing a final checkpoint when configured.
// The listener closes first so reconnecting workers dial the successor
// server rather than this dying one. On cluster roles it also stops the
// background protocol loops (announce stream, replication) and waits for
// them to exit.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stopping) })
	_ = s.listener.Close()
	s.inner.Stop()
	s.bg.Wait()
	_ = s.admin.Close()
}

// MetricsAddr returns the admin HTTP listener's address, or "" when
// ServerConfig.MetricsAddr was unset.
func (s *Server) MetricsAddr() string { return s.admin.Addr() }

// Registry returns the server's observability registry (always present;
// scraping it does not require the admin listener).
func (s *Server) Registry() *obs.Registry { return s.inner.Registry() }

// Status snapshots the server's live state — the same payload /statusz
// serves.
func (s *Server) Status() ps.ServerStatus { return s.inner.Status() }

// Traces returns the sampled push-lifecycle traces collected so far, oldest
// first (nil when tracing is disabled).
func (s *Server) Traces() []obs.PushTrace { return s.inner.Traces() }

// Updates returns the number of gradient updates applied so far.
func (s *Server) Updates() int { return s.inner.Pushes() }

// Dropped returns the number of pushed updates the policy discarded — the
// backup-worker baseline's defining metric (0 elsewhere).
func (s *Server) Dropped() int { return s.inner.Dropped() }

// Rejoins returns the number of worker rejoins accepted so far.
func (s *Server) Rejoins() int { return s.inner.Rejoins() }

// Departures returns the number of worker sessions deregistered so far —
// crashes, graceful leaves and lease evictions combined.
func (s *Server) Departures() int { return s.inner.Departures() }

// Version returns the parameter-store version (applied updates, including
// any restored from a checkpoint).
func (s *Server) Version() int64 { return s.store.Version() }

// Restored reports whether Serve resumed from an existing checkpoint.
func (s *Server) Restored() bool { return s.restored }

// CheckpointError returns the most recent checkpoint write failure, if any.
func (s *Server) CheckpointError() error { return s.inner.CheckpointError() }

// Evaluate measures the current global model's accuracy on the held-out
// split of the configured dataset. It snapshots the store without stopping
// training, so it may be called mid-run. On a cluster coordinator it
// assembles the full weight vector from the data servers through read-only
// replica sessions; data and backup servers hold only their shard range and
// cannot evaluate.
func (s *Server) Evaluate() (float64, error) {
	_, test, err := s.cfg.buildDatasets()
	if err != nil {
		return 0, err
	}
	model := s.spec.Build(rand.New(rand.NewSource(s.cfg.Seed)))
	var params []*tensor.Tensor
	switch s.role {
	case "":
		params, _ = s.store.Snapshot()
	case RoleCoordinator:
		if params, _, err = clusterSnapshot(s.clusterDial, s.listener.Addr()); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("dssp: a %s server holds only its shard range; evaluate via the coordinator", s.role)
	}
	if err := model.SetParams(params); err != nil {
		return 0, err
	}
	x, labels := test.All()
	return model.Accuracy(x, labels), nil
}

// Serve starts a parameter server listening on cfg.Addr and returns
// immediately; the server runs until Stop is called or all workers finish.
// With cfg.Cluster.Role set it starts the corresponding member of a server
// group instead (DESIGN.md §10).
func Serve(cfg ServerConfig) (*Server, error) {
	if cfg.Cluster.Role != "" {
		return serveCluster(cfg)
	}
	cfg2 := TrainConfig{Model: cfg.Model, Dataset: cfg.Dataset, Workers: cfg.Workers,
		Sync: cfg.Sync, LearningRate: cfg.LearningRate, Seed: cfg.Seed}.withDefaults()
	if cfg2.Workers <= 0 {
		return nil, fmt.Errorf("dssp: server needs a positive worker count")
	}
	spec, err := cfg2.modelSpec()
	if err != nil {
		return nil, err
	}
	if err := cfg2.Sync.Validate(cfg2.Workers); err != nil {
		return nil, err
	}
	policyCfg := cfg2.Sync.policyConfig()
	policyCfg.Workers = cfg2.Workers
	policy, err := core.NewPolicy(policyCfg)
	if err != nil {
		return nil, err
	}
	initial := spec.Build(rand.New(rand.NewSource(cfg2.Seed)))
	store, err := ps.NewStoreSharded(initial.Params(),
		optimizer.NewSGDMomentum(cfg2.LearningRate, cfg.Momentum, cfg.WeightDecay), cfg.Shards)
	if err != nil {
		return nil, err
	}
	restored := false
	if cfg.Checkpoint.Dir != "" && ps.CheckpointExists(cfg.Checkpoint.Dir) {
		if err := store.RestoreCheckpointDir(cfg.Checkpoint.Dir); err != nil {
			return nil, fmt.Errorf("dssp: restore checkpoint: %w", err)
		}
		restored = true
	}
	reg := obs.NewRegistry()
	server, err := ps.NewServer(ps.ServerConfig{
		Workers:          cfg2.Workers,
		Policy:           policy,
		Store:            store,
		Options:          cfg.Options.serverOptions(),
		DisableDeltaPull: cfg.DisableDeltaPull,
		Metrics:          reg,
		Trace:            obs.TraceConfig{Every: cfg.TraceEvery},
	})
	if err != nil {
		return nil, err
	}
	// Every accepted connection meters its frames and bytes into the same
	// registry the server's counters live on.
	listener, err := transport.ListenWireMetered(cfg.Addr, transport.WireFormat(cfg.Wire), transport.NewMetrics(reg))
	if err != nil {
		return nil, err
	}
	var admin *obs.AdminServer
	if cfg.MetricsAddr != "" {
		admin, err = obs.ServeAdmin(cfg.MetricsAddr, reg,
			func() any { return server.Status() }, server.Traces)
		if err != nil {
			_ = listener.Close()
			return nil, fmt.Errorf("dssp: metrics listener: %w", err)
		}
	}
	go func() { _ = server.Serve(listener) }()
	return &Server{
		inner:    server,
		listener: listener,
		store:    store,
		spec:     spec,
		cfg:      cfg2,
		restored: restored,
		admin:    admin,
		wire:     cfg.Wire,
		failed:   make(chan struct{}),
		stopping: make(chan struct{}),
	}, nil
}

// WorkerConfig configures one TCP worker process (used by cmd/psworker).
type WorkerConfig struct {
	// ServerAddr is the parameter server's address. With Cluster set this is
	// the coordinator, from which the worker learns the cluster map.
	ServerAddr string
	// Cluster makes the worker join a server group: it registers with the
	// coordinator at ServerAddr, fetches the cluster map, and routes gradient
	// fragments directly to each shard owner while synchronization decisions
	// stay with the coordinator. A dead data link recovers by refetching the
	// map (which is how a backup promotion reaches the worker); a dead
	// coordinator fails the run fast by design.
	Cluster bool
	// Tree makes the worker join through the aggregation tier (DESIGN.md
	// §11): it fetches the tree layout from the root at ServerAddr and dials
	// the relay covering its worker index, falling back to the root when no
	// relay does. Every reconnect attempt re-fetches the layout, which is
	// how a worker orphaned by a dead relay re-parents. Mutually exclusive
	// with Cluster.
	Tree bool
	// Wire selects the TCP wire format, WireBinary or WireGob; empty means
	// WireBinary. It must match the server's.
	Wire string
	// WorkerID is this worker's index in [0, Workers).
	WorkerID int
	// Workers is the total number of workers (determines the data shard).
	Workers int
	// Model, Dataset, BatchSize, Epochs and Seed must match the server and
	// the other workers.
	Model     Model
	Dataset   DatasetConfig
	BatchSize int
	Epochs    int
	Seed      int64
	// Delay adds an artificial per-iteration delay to emulate a slower GPU.
	Delay time.Duration
	// Options is the shared serving surface. For a worker the acting fields
	// are Compression (the zero value adopts whatever the server speaks; an
	// explicit codec must match the server's exactly), Shards (when
	// positive, the store layout this worker expects — a mismatch aborts at
	// registration; zero accepts any), DeltaPull (request version-gated
	// delta pulls; ungranting servers keep pulls full) and
	// HeartbeatInterval. The server-side fields are ignored here.
	Options
	// Adversary, when not 0 or 1, makes this worker Byzantine for robustness
	// experiments: every pushed gradient is scaled by this factor (e.g. -10
	// for scaled ascent). An adversarial worker losing its connection is
	// reported as Crashed — the expected fate under a guarded server — not
	// as an error.
	Adversary float64
	// Reconnect makes the worker ride through connection failures: on any
	// transport error it redials the server (with backoff, for up to
	// ReconnectTimeout), rejoins carrying the last store version it saw, and
	// retries the interrupted iteration from a fresh pull. This is what lets
	// a worker survive a parameter-server restart.
	Reconnect bool
	// ReconnectTimeout bounds each reconnection attempt sequence; 0 means
	// the default 30s.
	ReconnectTimeout time.Duration
	// FailAfter > 0 injects a fault for demos and tests: the worker drops
	// its connection abruptly — no Done, no Leave, like a process kill —
	// before starting iteration FailAfter, and RunWorker returns a report
	// with Crashed set.
	FailAfter int
	// MetricsAddr, when non-empty, starts an admin HTTP listener serving
	// this worker's metrics (/metrics: pull/push latency, iteration count,
	// transport traffic), /healthz and pprof. "127.0.0.1:0" picks a free
	// port.
	MetricsAddr string
	// OnAdminAddr, when set alongside MetricsAddr, is called once with the
	// admin listener's bound address — the way to learn the port when
	// MetricsAddr asked for ":0".
	OnAdminAddr func(addr string)
}

// WorkerReport summarizes one worker's run.
type WorkerReport struct {
	// Iterations is the number of mini-batches processed.
	Iterations int
	// FinalLoss is the loss of the last mini-batch.
	FinalLoss float64
	// Duration is the wall-clock time spent training.
	Duration time.Duration
	// Codec is the negotiated gradient codec (useful when Compression was
	// left on auto).
	Codec string
	// PushedBytes and PulledBytes approximate this worker's wire traffic.
	PushedBytes int64
	PulledBytes int64
	// Reconnects is how many times the worker redialed and rejoined after
	// losing its connection.
	Reconnects int
	// Crashed reports that the run ended through FailAfter fault injection.
	Crashed bool
}

// workerLink is one live connection to the server: the client plus the
// heartbeat stopper tied to its lifetime.
type workerLink struct {
	client *ps.Client
	stopHB func()
}

// close tears the link down without deregistering (an abrupt close is how a
// crash looks to the server; a graceful end sends Done first).
func (l *workerLink) close() {
	l.stopHB()
	_ = l.client.Close()
}

// pushGrads returns what a worker pushes after Backward: the replica's own
// gradient tensors — the client sends them from where they are and is done
// with them when the push returns, and the next iteration's ZeroGrads
// overwrites them — or, for an adversarial worker (WorkerConfig.Adversary), a
// private clone scaled by factor, so the corruption never reaches the
// local replica. A factor of 0 or 1 is an honest worker.
func pushGrads(replica *nn.Network, factor float64) []*tensor.Tensor {
	if factor == 0 || factor == 1 {
		return replica.Grads()
	}
	grads := replica.CloneGrads()
	f := float32(factor)
	for _, g := range grads {
		d := g.Data()
		for i := range d {
			d[i] *= f
		}
	}
	return grads
}

// RunWorker connects to a parameter server over TCP and runs the worker side
// of Algorithm 1 until the configured number of epochs completes. With
// Reconnect set it survives server restarts and transient network failures
// by redialing and rejoining mid-run.
func RunWorker(cfg WorkerConfig) (*WorkerReport, error) {
	base := TrainConfig{Model: cfg.Model, Dataset: cfg.Dataset, Workers: cfg.Workers,
		BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Seed: cfg.Seed}.withDefaults()
	if cfg.WorkerID < 0 || cfg.WorkerID >= base.Workers {
		return nil, fmt.Errorf("dssp: worker id %d out of range [0,%d)", cfg.WorkerID, base.Workers)
	}
	if cfg.Tree && cfg.Cluster {
		return nil, fmt.Errorf("dssp: Tree and Cluster are mutually exclusive")
	}
	// Validate the wire format up front: a typo must fail immediately, not
	// spin inside the reconnect backoff loop.
	if _, err := transport.ParseWireFormat(cfg.Wire); err != nil {
		return nil, err
	}
	spec, err := base.modelSpec()
	if err != nil {
		return nil, err
	}
	train, _, err := base.buildDatasets()
	if err != nil {
		return nil, err
	}
	shard, err := data.PartitionDataset(train, cfg.WorkerID, base.Workers)
	if err != nil {
		return nil, err
	}
	iter, err := data.NewBatchIterator(shard, base.BatchSize, base.Seed+int64(cfg.WorkerID)*1009)
	if err != nil {
		return nil, err
	}

	ccfg := cfg.Compression.internal()
	if cfg.Compression.Codec == "" {
		// Unset means "follow the server" for workers: a fleet started with
		// default flags keeps working when the server turns compression on.
		ccfg.Codec = compress.Auto
	}

	// Worker-side observability is opt-in via MetricsAddr: one registry
	// spans reconnects (each new link instruments onto it), so the scraped
	// series survive a server restart.
	var reg *obs.Registry
	var meter *transport.Metrics
	if cfg.MetricsAddr != "" {
		reg = obs.NewRegistry()
		meter = transport.NewMetrics(reg)
		admin, err := obs.ServeAdmin(cfg.MetricsAddr, reg, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("dssp: worker %d metrics listener: %w", cfg.WorkerID, err)
		}
		defer admin.Close()
		if cfg.OnAdminAddr != nil {
			cfg.OnAdminAddr(admin.Addr())
		}
	}

	if cfg.Cluster {
		iterate := func(replica *nn.Network) ([]*tensor.Tensor, float64) {
			x, labels := iter.Next()
			replica.ZeroGrads()
			loss, _ := replica.Loss(x, labels, true)
			replica.Backward()
			if cfg.Delay > 0 {
				time.Sleep(cfg.Delay)
			}
			return pushGrads(replica, cfg.Adversary), loss
		}
		itersPerEpoch := (shard.Len() + base.BatchSize - 1) / base.BatchSize
		return runClusterWorker(cfg, base, spec, iterate, itersPerEpoch*base.Epochs,
			ps.ClusterClientConfig{
				Compression:    ccfg,
				DeltaPull:      cfg.DeltaPull,
				RecoverTimeout: cfg.ReconnectTimeout,
			}, meter)
	}

	// resolveAddr picks the endpoint to dial: the server itself, or — in
	// tree mode — the relay the root's current layout assigns this worker.
	// It re-fetches the layout on every call, so a reconnect after a relay
	// death lands on the re-parented topology, not the dead address.
	resolveAddr := func() (string, error) {
		if !cfg.Tree {
			return cfg.ServerAddr, nil
		}
		conn, err := transport.DialWireMetered(cfg.ServerAddr, transport.WireFormat(cfg.Wire), meter)
		if err != nil {
			return "", err
		}
		layout, err := ps.FetchTreeLayout(conn)
		conn.Close()
		if err != nil {
			return "", err
		}
		if addr := layout.Covering(cfg.WorkerID); addr != "" {
			return addr, nil
		}
		return cfg.ServerAddr, nil
	}

	// connect dials, registers (or rejoins) and starts heartbeats.
	connect := func(rejoin bool, lastVersion int64) (*workerLink, error) {
		addr, err := resolveAddr()
		if err != nil {
			return nil, err
		}
		conn, err := transport.DialWireMetered(addr, transport.WireFormat(cfg.Wire), meter)
		if err != nil {
			return nil, err
		}
		client, err := ps.NewClientCompressed(conn, cfg.WorkerID, ccfg)
		if err != nil {
			conn.Close()
			return nil, err
		}
		client.Instrument(reg)
		client.SetDeltaPull(cfg.DeltaPull)
		if rejoin {
			err = client.Rejoin(lastVersion)
		} else {
			err = client.Register()
		}
		if err != nil {
			client.Close()
			return nil, err
		}
		if cfg.Shards > 0 && client.ServerShards() != cfg.Shards {
			client.Close()
			return nil, fmt.Errorf("dssp: worker %d expects %d parameter-store shards, server runs %d",
				cfg.WorkerID, cfg.Shards, client.ServerShards())
		}
		stopHB := func() {}
		if cfg.HeartbeatInterval > 0 {
			stopHB = client.StartHeartbeats(cfg.HeartbeatInterval)
		}
		return &workerLink{client: client, stopHB: stopHB}, nil
	}

	// connectWithBackoff retries connect until ReconnectTimeout. With
	// Reconnect set it also covers the first connection: a worker launched
	// during the very server outage Reconnect exists to survive (a restart
	// window, an orchestrator racing the server up) keeps dialing instead of
	// failing on arrival.
	connectWithBackoff := func(rejoin bool, lastVersion int64, cause error) (*workerLink, error) {
		budget := cfg.ReconnectTimeout
		if budget <= 0 {
			budget = 30 * time.Second
		}
		deadline := time.Now().Add(budget)
		backoff := 100 * time.Millisecond
		for {
			next, err := connect(rejoin, lastVersion)
			if err == nil {
				return next, nil
			}
			if transport.IsWireMismatch(err) {
				// A wire-format or protocol-version mismatch is permanent
				// for this configuration pair: retrying it would spam both
				// sides for the whole backoff budget and then fail anyway.
				return nil, fmt.Errorf("dssp: worker %d: %w", cfg.WorkerID, err)
			}
			if time.Now().After(deadline) {
				if cause != nil {
					return nil, fmt.Errorf("dssp: worker %d gave up reconnecting after %v (last error %v; cause %w)",
						cfg.WorkerID, budget, err, cause)
				}
				return nil, fmt.Errorf("dssp: worker %d gave up connecting after %v: %w", cfg.WorkerID, budget, err)
			}
			time.Sleep(backoff)
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
	}

	report := &WorkerReport{}
	lastVersion := int64(0)

	var link *workerLink
	if cfg.Reconnect {
		link, err = connectWithBackoff(false, 0, nil)
	} else {
		link, err = connect(false, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("dssp: worker %d connect: %w", cfg.WorkerID, err)
	}
	// accountAndClose folds the link's traffic into the report before
	// discarding it, so bytes moved before a reconnect are not lost. The
	// link is nilled so the deferred cleanup never double-counts one that a
	// failed reconnect already retired.
	accountAndClose := func() {
		if link == nil {
			return
		}
		pushed, pulled := link.client.Traffic()
		report.PushedBytes += pushed
		report.PulledBytes += pulled
		report.Codec = link.client.Compression().Codec
		link.close()
		link = nil
	}
	defer func() { accountAndClose() }()

	// reconnect replaces a failed link, redialing with backoff and rejoining
	// with the last seen version.
	reconnect := func(cause error) error {
		if !cfg.Reconnect {
			return cause
		}
		accountAndClose()
		next, err := connectWithBackoff(true, lastVersion, cause)
		if err != nil {
			return err
		}
		link = next
		report.Reconnects++
		return nil
	}

	replica := spec.Build(rand.New(rand.NewSource(base.Seed)))
	itersPerEpoch := (shard.Len() + base.BatchSize - 1) / base.BatchSize
	totalIters := itersPerEpoch * base.Epochs

	start := time.Now()
	lastLoss := 0.0
	adversarial := cfg.Adversary != 0 && cfg.Adversary != 1
	// crashReport finishes the run as a crash at iteration it — fault
	// injection, or an adversarial worker whose connection the server's
	// guard closed for good (its expected fate; not an error).
	crashReport := func(it int) (*WorkerReport, error) {
		report.Crashed = true
		report.Iterations = it
		report.FinalLoss = lastLoss
		report.Duration = time.Since(start)
		return report, nil
	}
	for it := 0; it < totalIters; {
		if cfg.FailAfter > 0 && it == cfg.FailAfter-1 {
			// Injected fault: vanish without a word mid-run.
			return crashReport(it)
		}
		params, version, err := link.client.Pull()
		if err != nil {
			if err = reconnect(err); err != nil {
				if adversarial {
					return crashReport(it)
				}
				return nil, err
			}
			continue
		}
		lastVersion = version
		if err := replica.SetParams(params); err != nil {
			return nil, err
		}
		x, labels := iter.Next()
		replica.ZeroGrads()
		lastLoss, _ = replica.Loss(x, labels, true)
		replica.Backward()
		if cfg.Delay > 0 {
			time.Sleep(cfg.Delay)
		}
		grads := pushGrads(replica, cfg.Adversary)
		if err := link.client.PushAndWait(grads, version, it); err != nil {
			// The push (or the release it waits for) died with the
			// connection; after rejoining, redo the iteration from a fresh
			// pull so the gradient matches the weights it updates.
			if err = reconnect(err); err != nil {
				if adversarial {
					return crashReport(it)
				}
				return nil, err
			}
			continue
		}
		it++
	}
	for {
		if err := link.client.Done(); err == nil {
			break
		} else if err = reconnect(err); err != nil {
			if adversarial {
				return crashReport(totalIters)
			}
			return nil, err
		}
	}
	report.Iterations = totalIters
	report.FinalLoss = lastLoss
	report.Duration = time.Since(start)
	return report, nil
}
