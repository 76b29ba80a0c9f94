package dssp

import (
	"fmt"
	"math/rand"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/trainer"
	"dssp/internal/transport"
)

// ServerConfig configures a stand-alone parameter server reachable over TCP
// (used by cmd/psserver). Workers built with RunWorker connect to it.
type ServerConfig struct {
	// Addr is the TCP listen address, e.g. ":7070".
	Addr string
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
	// its fields are embedded (cfg.Compression, cfg.Elastic, ...). In a
	// server group Shards is the group-wide count and must be the same on
	// every member. HeartbeatInterval is a worker-side knob and ignored here.
	Options
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
	spec     nn.ModelSpec
	cfg      TrainConfig
	role     string
	admin    *obs.AdminServer
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
	s.inner.Stop()
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
func (s *Server) Version() int64 { return s.inner.Store().Version() }

// Restored reports whether Serve resumed from an existing checkpoint.
func (s *Server) Restored() bool { return s.inner.Restored() }

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
		params, _ = s.inner.Store().Snapshot()
	case RoleCoordinator:
		if params, err = clusterSnapshot(s.listener.Addr()); err != nil {
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

// newRegistry returns the metrics registry of one process — server, worker or
// relay — with the one series they all share already on it: which numeric
// kernels this process bound. It is constant for the life of the process; a
// slow fp16 run on a CPU without F16C explains itself there.
func newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	bound := reg.GaugeVec("dssp_kernels_bound",
		"Kernel binding of each numeric package in this process (constant 1): internal/tensor's matmul loops run as avx2 or go, internal/compress's value-codec loops as f16c or go.",
		"package", "kernel")
	bound.With("tensor", tensor.Kernel()).Set(1)
	bound.With("compress", compress.Kernel()).Set(1)
	return reg
}

// Serve starts a parameter server listening on cfg.Addr and returns
// immediately; the server runs until Stop is called or all workers finish.
// With cfg.Cluster.Role set it starts the corresponding member of a server
// group instead (DESIGN.md §10), which ps.Start stands up as it does every
// role; Serve adds the model and dataset defaults, the TCP listener and the
// admin endpoint.
func Serve(cfg ServerConfig) (*Server, error) {
	tc := TrainConfig{Model: cfg.Model, Dataset: cfg.Dataset, Workers: cfg.Workers,
		Sync: cfg.Sync, LearningRate: cfg.LearningRate, Seed: cfg.Seed}.withDefaults()
	if tc.Workers <= 0 {
		return nil, fmt.Errorf("dssp: server needs a positive worker count")
	}
	spec, err := tc.modelSpec()
	if err != nil {
		return nil, err
	}
	policyCfg := tc.Sync
	policyCfg.Workers = tc.Workers
	policy, err := core.NewPolicy(policyCfg)
	if err != nil {
		return nil, fmt.Errorf("dssp: invalid synchronization config: %w", err)
	}
	reg := newRegistry()
	// Every accepted connection meters its frames and bytes into the same
	// registry the server's counters live on.
	listener, err := transport.ListenWireMetered(cfg.Addr, transport.WireBinary, transport.NewMetrics(reg))
	if err != nil {
		return nil, err
	}
	inner, err := ps.Start(ps.ServerConfig{
		Workers: tc.Workers,
		Policy:  policy,
		Options: cfg.Options,
		Metrics: reg,
		Trace:   obs.TraceConfig{Every: cfg.TraceEvery},
		Cluster: cfg.Cluster,
	}, spec.Build(rand.New(rand.NewSource(tc.Seed))).Params(),
		optimizer.NewSGDMomentum(tc.LearningRate, cfg.Momentum, cfg.WeightDecay),
		listener, transport.Dial)
	if err != nil {
		_ = listener.Close()
		return nil, err
	}
	s := &Server{inner: inner, listener: listener, spec: spec, cfg: tc, role: cfg.Cluster.Role}
	if cfg.MetricsAddr != "" {
		if s.admin, err = obs.ServeAdmin(cfg.MetricsAddr, reg,
			func() any { return inner.Status() }, inner.Traces); err != nil {
			inner.Stop()
			return nil, fmt.Errorf("dssp: metrics listener: %w", err)
		}
	}
	return s, nil
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
	// coordinator link ends the run, or with Reconnect is rejoined.
	Cluster bool
	// Tree makes the worker join through the aggregation tier (DESIGN.md
	// §11): it fetches the tree layout from the root at ServerAddr and dials
	// the relay covering its worker index, falling back to the root when no
	// relay does. Every reconnect attempt re-fetches the layout, which is
	// how a worker orphaned by a dead relay re-parents. Mutually exclusive
	// with Cluster.
	Tree bool
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
	// positive, the store shard count this worker expects — group-wide with
	// Cluster; a mismatch aborts at registration, zero accepts any) and
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
	// a worker survive a parameter-server restart, a Tree worker a relay
	// death, and a Cluster worker a lost coordinator connection (the
	// coordinator gets a Rejoin, the data servers a fresh registration).
	Reconnect bool
	// ReconnectTimeout is the worker's patience with Reconnect set (0 means
	// 30s): how long connecting, rejoining and recovering a dead data link
	// keep retrying before the run fails. Without Reconnect the worker
	// connects once and a data link gets 15s.
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
	// Crashed reports that the run ended through FailAfter fault injection,
	// or that an adversarial worker was evicted.
	Crashed bool
}

// RunWorker connects to a parameter server over TCP and runs the worker side
// of Algorithm 1 until the configured number of epochs completes. How the
// worker reaches the store — directly, through a relay, as a member of a
// server group — is a property of the route it connects along; the loop is
// trainer.RunWorker on all three. With Reconnect set it survives server
// restarts and transient network failures by redialing and rejoining mid-run.
func RunWorker(cfg WorkerConfig) (*WorkerReport, error) {
	base := TrainConfig{Model: cfg.Model, Dataset: cfg.Dataset, Workers: cfg.Workers,
		BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Seed: cfg.Seed}.withDefaults()
	if cfg.WorkerID < 0 || cfg.WorkerID >= base.Workers {
		return nil, fmt.Errorf("dssp: worker id %d out of range [0,%d)", cfg.WorkerID, base.Workers)
	}
	if cfg.Tree && cfg.Cluster {
		return nil, fmt.Errorf("dssp: Tree and Cluster are mutually exclusive")
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

	// Worker-side observability is opt-in via MetricsAddr: one registry
	// spans reconnects (each new client instruments onto it), so the scraped
	// series survive a server restart.
	var reg *obs.Registry
	var meter *transport.Metrics
	if cfg.MetricsAddr != "" {
		reg = newRegistry()
		meter = transport.NewMetrics(reg)
		admin, err := obs.ServeAdmin(cfg.MetricsAddr, reg, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("dssp: worker %d metrics listener: %w", cfg.WorkerID, err)
		}
		defer admin.Close()
	}

	route := ps.Route{
		Dial: func(addr string) (transport.Conn, error) {
			return transport.DialWireMetered(addr, transport.WireBinary, meter)
		},
		Addr:        cfg.ServerAddr,
		Worker:      cfg.WorkerID,
		Compression: cfg.Compression.Normalized(),
		Shards:      cfg.Shards,
		Metrics:     reg,
	}
	if cfg.Compression.Codec == "" {
		// Unset means "follow the server" for workers: a fleet started with
		// default flags keeps working when the server turns compression on.
		route.Compression.Codec = compress.Auto
	}
	switch {
	case cfg.Cluster:
		route.Topology = ps.Group
	case cfg.Tree:
		route.Topology = ps.Tree
	}
	// With Reconnect the patience also covers the first connection: a worker
	// launched during the very server outage Reconnect exists to survive (a
	// restart window, an orchestrator racing the server up) keeps dialing
	// instead of failing on arrival.
	if cfg.Reconnect {
		if route.Retry = cfg.ReconnectTimeout; route.Retry <= 0 {
			route.Retry = 30 * time.Second
		}
	}

	itersPerEpoch := (shard.Len() + base.BatchSize - 1) / base.BatchSize
	r, err := trainer.RunWorker(trainer.Worker{
		Connect: func(rejoin bool, lastVersion int64) (ps.WorkerClient, error) {
			return ps.Connect(route, rejoin, lastVersion)
		},
		Reconnect:         cfg.Reconnect,
		HeartbeatInterval: cfg.HeartbeatInterval,
		Replica:           spec.Build(rand.New(rand.NewSource(base.Seed))),
		Batches:           iter,
		Iterations:        itersPerEpoch * base.Epochs,
		Delay:             cfg.Delay,
		Adversary:         Adversary{GradScale: cfg.Adversary},
		CrashAt:           cfg.FailAfter - 1, // FailAfter is 1-based, 0 = never
	})
	if err != nil {
		return nil, fmt.Errorf("dssp: worker %d: %w", cfg.WorkerID, err)
	}
	return &WorkerReport{
		Iterations:  r.Iterations,
		FinalLoss:   r.Loss,
		Duration:    r.Duration,
		Codec:       r.Codec,
		PushedBytes: r.Pushed,
		PulledBytes: r.Pulled,
		Reconnects:  r.Reconnects,
		Crashed:     r.Crashed,
	}, nil
}
