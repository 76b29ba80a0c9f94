package dssp

import (
	"fmt"
	"math/rand"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
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
	// Workers is the number of workers expected to join; it must be
	// positive.
	Workers int
	// Sync selects the synchronization paradigm.
	Sync Sync
	// Model and Dataset must match the workers' configuration; the server
	// builds the initial global weights from them.
	Model   Model
	Dataset DatasetConfig
	// LearningRate and Momentum configure the server-side SGD.
	LearningRate float64
	Momentum     float64
	// Options is the shared serving surface (sharding, compression,
	// aggregation, guard, lease, checkpointing); its fields are embedded
	// (cfg.Compression, cfg.Lease, ...). In a server group Shards is the
	// coordinator's, the group-wide count, and a data server refuses it. A
	// server with a Lease names it in every Registered reply, and its
	// clients heartbeat under it on their own.
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
	// §10): a coordinator that owns the paradigm policy, or a data server
	// that owns a shard range or, when the coordinator names another owner
	// for it, stands by for that owner. The zero value is a classic
	// standalone server.
	Cluster ClusterOptions
}

// Server is a running TCP parameter server.
type Server struct {
	inner    *ps.Server
	listener transport.Listener
	job      job
	role     string
	admin    *obs.AdminServer
}

// Addr returns the address the server is listening on.
func (s *Server) Addr() string { return s.listener.Addr() }

// Done returns a channel closed once training is complete: every worker
// reported completion, or — on an elastic server — every worker that is not
// absent for longer than one lease did. A data server that announced as a
// standby closes it when its coordinator reports the run complete.
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
// serves, and the one read path for it: restored or promoted, a
// coordinator's map, the counters, the staleness and each slot's wait.
func (s *Server) Status() ps.ServerStatus { return s.inner.Status() }

// Updates is Status().Pushes, the gradient updates applied so far. The
// end-to-end benchmark (bench/run.go) is its one caller.
func (s *Server) Updates() int { return int(s.inner.Status().Pushes) }

// Dropped is Status().Dropped, the pushed updates the anomaly guard rejected
// without reaching the store. The end-to-end benchmark (bench/run.go) is its
// one caller.
func (s *Server) Dropped() int { return int(s.inner.Status().Dropped) }

// Evaluate measures the current global model's accuracy on the held-out
// split of the configured dataset. It snapshots the store without stopping
// training, so it may be called mid-run. On a cluster coordinator it
// assembles the full weight vector from the data servers through read-only
// replica sessions; data servers hold only their shard range and cannot
// evaluate.
func (s *Server) Evaluate() (float64, error) {
	run, err := s.job.build(testSplit)
	if err != nil {
		return 0, err
	}
	model := run.Model.Build(rand.New(rand.NewSource(run.Seed)))
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
	x, labels := run.Test.All()
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
// role; Serve adds the job's model and defaults (it builds no data), the TCP
// listener and the admin endpoint.
func Serve(cfg ServerConfig) (*Server, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("dssp: server needs a positive worker count, got %d", cfg.Workers)
	}
	j := job{Model: cfg.Model, Dataset: cfg.Dataset, Workers: cfg.Workers,
		Sync: cfg.Sync, LearningRate: cfg.LearningRate, Seed: cfg.Seed}
	run, err := j.build(noSplits)
	if err != nil {
		return nil, err
	}
	run.Policy.Workers = run.Workers
	policy, err := core.NewPolicy(run.Policy)
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
		Workers:    run.Workers,
		Policy:     policy,
		Options:    cfg.Options,
		Metrics:    reg,
		TraceEvery: cfg.TraceEvery,
		Cluster:    cfg.Cluster,
	}, run.Model.Build(rand.New(rand.NewSource(run.Seed))).Params(),
		optimizer.NewSGDMomentum(run.LearningRate, cfg.Momentum),
		listener, transport.Dial)
	if err != nil {
		_ = listener.Close()
		return nil, err
	}
	s := &Server{inner: inner, listener: listener, job: j, role: cfg.Cluster.Role}
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
	// ServerAddr is the server the worker dials, which says at connect what
	// it is. A flat server, or a relay, registers the worker. A tree's root
	// names the relay covering the worker's index, which it then dials
	// (DESIGN.md §11); every reconnect asks again, which is how a worker
	// orphaned by a dead relay re-parents. A coordinator hands over its
	// cluster map: the worker registers there and routes gradient fragments
	// directly to each shard owner while synchronization decisions stay with
	// the coordinator (DESIGN.md §10). A dead data link recovers by
	// refetching the map (which is how a standby's promotion reaches the
	// worker); a dead coordinator link ends the run, or with Reconnect is
	// rejoined. A data server refuses the worker, naming its coordinator.
	ServerAddr string
	// Cluster and Tree are read by no code outside the end-to-end
	// benchmark (bench/), which still sets them to pick its own client; the
	// server at ServerAddr decides the route, and RunWorker ignores both.
	Cluster, Tree bool
	// WorkerID is this worker's index in [0, Workers).
	WorkerID int
	// Workers is the total number of workers; it must be positive. The
	// iteration count is Train's: Epochs passes over Examples/Workers
	// examples, rounded down (all Examples when that is 0).
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
	// Options is the shared serving surface. For a worker the one acting
	// field is Compression (the zero value adopts whatever the server speaks;
	// an explicit codec must match the server's exactly). The server-side
	// fields — Shards, Lease, Aggregator, Guard, Checkpoint — are ignored
	// here: under a server with a Lease the worker heartbeats at the lease
	// the server names.
	Options
	// Adversary, when not 0 or 1, makes this worker Byzantine for robustness
	// experiments: every pushed gradient is scaled by this factor (e.g. -10
	// for scaled ascent). An adversarial worker losing its connection is
	// reported as Crashed — the expected fate under a guarded server — not
	// as an error.
	Adversary float64
	// Reconnect, when positive, makes the worker ride through connection
	// failures: on any transport error it redials the server (with backoff,
	// for up to Reconnect), rejoins carrying the last store version it saw,
	// and retries the interrupted iteration from a fresh pull. The same
	// patience covers the first connection and the recovery of a dead data
	// link. This is what lets a worker survive a parameter-server restart, a
	// worker behind a relay that relay's death, and a group's worker a lost
	// coordinator connection (the coordinator gets a Rejoin, the data servers a fresh
	// registration). Zero connects once, and a data link then gets 15s.
	Reconnect time.Duration
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

// WorkerReport summarizes one worker's run: its iterations, final
// mini-batch loss, duration, negotiated codec, wire traffic, reconnects and
// whether it crashed.
type WorkerReport = trainer.WorkerReport

// RunWorker connects to a parameter server over TCP and runs the worker side
// of Algorithm 1 until the configured number of epochs completes. How the
// worker reaches the store — directly, through a relay, as a member of a
// server group — is what the server at ServerAddr says it is when the worker
// connects; the loop is trainer.RunWorker on all three. With Reconnect set it survives server
// restarts and transient network failures by redialing and rejoining mid-run.
func RunWorker(cfg WorkerConfig) (*WorkerReport, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("dssp: worker needs a positive worker count, got %d", cfg.Workers)
	}
	if cfg.WorkerID < 0 || cfg.WorkerID >= cfg.Workers {
		return nil, fmt.Errorf("dssp: worker id %d out of range [0,%d)", cfg.WorkerID, cfg.Workers)
	}
	run, err := job{Model: cfg.Model, Dataset: cfg.Dataset, Workers: cfg.Workers,
		BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Seed: cfg.Seed, Worker: cfg.WorkerID}.build(workerShard)
	if err != nil {
		return nil, err
	}
	w, err := run.Worker(cfg.WorkerID)
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
		Metrics:     reg,
		// The patience also covers the first connection: a worker launched
		// during the very server outage Reconnect exists to survive (a
		// restart window, an orchestrator racing the server up) keeps
		// dialing instead of failing on arrival.
		Retry: cfg.Reconnect,
	}
	if cfg.Compression.Codec == "" {
		// Unset means "follow the server" for workers: a fleet started with
		// default flags keeps working when the server turns compression on.
		route.Compression.Codec = compress.Auto
	}
	w.Connect = func(rejoin bool, lastVersion int64) (ps.WorkerClient, error) {
		return ps.Connect(route, rejoin, lastVersion)
	}
	w.Reconnect, w.Delay = cfg.Reconnect > 0, cfg.Delay
	w.Adversary = trainer.Adversary{GradScale: cfg.Adversary}
	w.CrashAt = cfg.FailAfter - 1 // FailAfter is 1-based, 0 = never
	r, err := trainer.RunWorker(w)
	if err != nil {
		return nil, fmt.Errorf("dssp: worker %d: %w", cfg.WorkerID, err)
	}
	return &r, nil
}
