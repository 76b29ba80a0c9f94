// Package trainer runs real data-parallel training through the parameter
// server: worker goroutines each hold a model replica and a shard of the
// dataset, compute gradients with the nn substrate, and exchange them with a
// ps.Server whose release decisions are made by one of the synchronization
// paradigms in internal/core. Per-worker artificial delays emulate the
// heterogeneous-GPU clusters of the paper's §V-D on a single machine.
package trainer

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/metrics"
	"dssp/internal/nn"
	"dssp/internal/obs"
	"dssp/internal/ps"
)

// Config describes one distributed training run.
type Config struct {
	// Model builds the network architecture to train.
	Model nn.ModelSpec
	// Train is the training dataset, partitioned across workers.
	Train *data.Dataset
	// TrainExamples, when positive, says Train is not the whole train split
	// but one worker's partition of a split of TrainExamples examples, cut
	// when it was generated: Worker takes Train as that worker's shard, and
	// the iteration count still follows the whole split. Zero: Train is the
	// whole split.
	TrainExamples int
	// Test is the evaluation dataset; when nil the training set is used.
	Test *data.Dataset
	// Workers is the number of worker goroutines.
	Workers int
	// BatchSize is the per-worker mini-batch size.
	BatchSize int
	// Epochs is the number of passes over each worker's shard.
	Epochs int
	// Policy selects the synchronization paradigm.
	Policy core.PolicyConfig
	// LearningRate and Momentum configure the server-side SGD.
	LearningRate float64
	Momentum     float64
	// WorkerDelay adds an artificial per-iteration delay to each worker,
	// emulating slower GPUs; nil or missing entries mean no delay.
	WorkerDelay []time.Duration
	// ClusterServers, when >= 2, runs the parameter server as an in-process
	// server group: that many data servers each own a contiguous shard range
	// of the store behind a coordinator that runs the paradigm policy, and
	// workers route pushes and pulls through a cluster client — the
	// single-process twin of a multi-process psserver group. 0 or 1 keeps
	// the classic single server.
	ClusterServers int
	// Fanout, when >= 2, fronts the server with an in-process aggregation
	// tier (DESIGN.md §11): ceil(Workers/Fanout) relays each sum the pushes
	// of up to Fanout workers into one ×k-weighted partial, cutting the
	// root's push ingress from O(Workers) to O(Workers/Fanout) frames per
	// round while the policy layer still sees every logical push. Workers
	// learn their relay from the root's tree layout, exactly as the TCP
	// worker does. Incompatible with ClusterServers >= 2, a non-sum
	// aggregator, and the anomaly guard. 0 or 1 keeps the flat topology.
	Fanout int
	// Options is the serving surface both sides of the run read (store
	// shards, compression, aggregation, guard, lease, checkpointing),
	// embedded so its fields read as cfg.Shards,
	// cfg.Compression, ... Each server gets the fields its role acts on
	// (ps.Options.ForRole), as psserver's would; an in-process group refuses
	// Checkpoint, whose one directory its members would share. In cluster mode
	// (ClusterServers >= 2) Shards is the group-wide count.
	ps.Options
	// Adversaries makes listed workers Byzantine: their honest gradients are
	// corrupted per the Adversary before pushing. An adversary whose
	// connection dies mid-run (guard eviction) is recorded as crashed, not
	// as a run failure.
	Adversaries map[int]Adversary
	// CrashAt injects faults for elasticity tests and demos: a worker listed
	// here abruptly drops its connection before pushing the given iteration
	// (0-based) — no Done, no Leave, exactly like a process kill. The run is
	// expected to complete without it; a crashed worker is not an error.
	CrashAt map[int]int
	// Seed makes model initialization and batching deterministic.
	Seed int64
	// Metrics, when non-nil, is the observability registry the run's server
	// (and transport) instrumentation lands on — the same registry an admin
	// endpoint scrapes. Nil gives the server a private registry; either way
	// Result.Metrics carries the end-of-run snapshot.
	Metrics *obs.Registry
	// hook, when set, receives the topology right after it stands up — a
	// test seam for reading its servers' registries and its relays'
	// RelayStats, and for injecting relay faults.
	hook func(*serving)
}

// Result collects the measurements of one run.
type Result struct {
	// Paradigm is the human-readable policy description.
	Paradigm string
	// Accuracy is test accuracy against elapsed wall-clock time.
	Accuracy *metrics.TimeSeries
	// Loss is the most recent training loss per evaluation point.
	Loss *metrics.TimeSeries
	// MeanStaleness and MaxStaleness summarize the staleness of applied
	// updates, read from the server's dssp_push_staleness and
	// dssp_push_staleness_max.
	MeanStaleness float64
	MaxStaleness  int
	// Waits is each worker's accumulated wait from push to release, read
	// from the server's dssp_worker_wait_seconds.
	Waits []time.Duration
	// Updates is the number of gradient updates applied.
	Updates int
	// Dropped is the number of pushed updates the anomaly guard rejected
	// without reaching the store.
	Dropped int
	// Crashed lists the workers that dropped out mid-run (fault injection
	// via Config.CrashAt, a guard-evicted adversary, or a worker goroutine
	// dying on a closed server).
	Crashed []int
	// Guard is the anomaly guard's accounting (zero unless Options.Guard
	// was enabled): per-worker flag counts, evictions, rejected pushes.
	Guard ps.GuardStats
	// Duration is the total wall-clock training time.
	Duration time.Duration
	// FinalAccuracy is the test accuracy of the final model.
	FinalAccuracy float64
	// PushedBytes and PulledBytes are the approximate payload bytes all
	// workers sent and received — the knob gradient compression turns.
	PushedBytes int64
	PulledBytes int64
	// Metrics is the end-of-run snapshot of the server's observability
	// registry (counters and gauges by series name, histograms as _sum and
	// _count; see docs/METRICS.md) — the same numbers a /metrics scrape
	// would have reported at that instant.
	Metrics map[string]float64
}

// validate checks the configuration.
func (c Config) validate() error {
	if c.Model.Build == nil {
		return fmt.Errorf("trainer: config needs a model spec")
	}
	if c.Train == nil || c.Train.Len() == 0 {
		return fmt.Errorf("trainer: config needs a non-empty training set")
	}
	if c.Workers <= 0 {
		return fmt.Errorf("trainer: worker count must be positive, got %d", c.Workers)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("trainer: batch size must be positive, got %d", c.BatchSize)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("trainer: epoch count must be positive, got %d", c.Epochs)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("trainer: learning rate must be positive, got %g", c.LearningRate)
	}
	return nil
}

// Run executes one distributed training run and returns its measurements.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Policy.Workers = cfg.Workers
	policy, err := core.NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}

	// Build the initial model; every worker replica starts from the same
	// weights because they are all pulled from the store before training.
	initModel := cfg.Model.Build(rand.New(rand.NewSource(cfg.Seed)))
	srv, err := buildServing(cfg, policy, initModel.Params())
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if cfg.hook != nil {
		cfg.hook(srv)
	}

	test := cfg.Test
	if test == nil {
		test = cfg.Train
	}
	totalIters := cfg.iterations()

	// Evaluate the global model about 30 times over the run.
	evalEvery := totalIters * cfg.Workers / 30
	if evalEvery == 0 {
		evalEvery = 1
	}

	start := time.Now()
	var lossMu sync.Mutex
	lastLoss := 0.0
	var pushedBytes, pulledBytes int64

	var wg sync.WaitGroup
	var crashedMu sync.Mutex
	var crashed []int
	errCh := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(workerID int) {
			defer wg.Done()
			report, err := runWorker(cfg, srv.route, workerID)
			if err != nil {
				errCh <- fmt.Errorf("worker %d: %w", workerID, err)
				return
			}
			if report.Crashed {
				crashedMu.Lock()
				crashed = append(crashed, workerID)
				crashedMu.Unlock()
			}
			lossMu.Lock()
			lastLoss = report.FinalLoss
			pushedBytes += report.PushedBytes
			pulledBytes += report.PulledBytes
			lossMu.Unlock()
		}(w)
	}

	// Evaluation loop: snapshot the store whenever enough new updates were
	// applied and evaluate on the test set; the learning rate stays the
	// configured one for the whole run.
	result := &Result{
		Paradigm: cfg.Policy.Describe(),
		Accuracy: metrics.NewTimeSeries(cfg.Policy.Describe()),
		Loss:     metrics.NewTimeSeries(cfg.Policy.Describe() + "/loss"),
	}
	evalModel := cfg.Model.Build(rand.New(rand.NewSource(cfg.Seed)))
	testX, testLabels := test.All()

	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()

	lastEval := int64(0)
	evaluate := func() {
		params, version := srv.snapshot()
		if err := evalModel.SetParams(params); err != nil {
			return
		}
		acc := evalModel.Accuracy(testX, testLabels)
		elapsed := time.Since(start)
		result.Accuracy.Add(elapsed, acc)
		lossMu.Lock()
		result.Loss.Add(elapsed, lastLoss)
		lossMu.Unlock()
		lastEval = version
	}

	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
poll:
	for {
		select {
		case err := <-errCh:
			srv.stop()
			return nil, err
		case <-workersDone:
			break poll
		case <-ticker.C:
			if err := srv.failure(); err != nil {
				return nil, err
			}
			if srv.version()-lastEval >= int64(evalEvery) {
				evaluate()
			}
		}
	}
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	evaluate()

	result.Duration = time.Since(start)
	st := srv.policyServer.Status()
	result.MeanStaleness, result.MaxStaleness = st.MeanStaleness, st.MaxStaleness
	result.Waits = make([]time.Duration, len(st.WaitSeconds))
	for w, sec := range st.WaitSeconds {
		result.Waits[w] = time.Duration(sec * float64(time.Second))
	}
	result.Updates, result.Dropped = int(st.Pushes), int(st.Dropped)
	result.Guard = st.Guard
	result.Metrics = srv.policyServer.Registry().Snapshot()
	crashedMu.Lock()
	result.Crashed = crashed
	crashedMu.Unlock()
	lossMu.Lock()
	result.PushedBytes = pushedBytes
	result.PulledBytes = pulledBytes
	lossMu.Unlock()
	if last, ok := result.Accuracy.Last(); ok {
		result.FinalAccuracy = last.Value
	}
	return result, nil
}

// iterations is how many mini-batches every worker pushes, in process and
// over TCP alike: Epochs passes over an equal share of the train split, its
// examples/Workers rounded down (the whole split when that share is empty),
// so that no paradigm waits on a worker that has already finished.
func (c Config) iterations() int {
	examples := c.Train.Len()
	if c.TrainExamples > 0 {
		examples = c.TrainExamples
	}
	share := examples / c.Workers
	if share == 0 {
		share = examples
	}
	return (share + c.BatchSize - 1) / c.BatchSize * c.Epochs
}

// Worker builds worker id's side of the run: its partition of Train, on
// Train's examples (all of Train when the partition leaves it none; Train as
// it is when TrainExamples says it was cut already), batches
// shuffled from Seed+id*1009, a replica built from Seed, the run's iteration
// count, and the delay, adversary and crash point c lists for it. Connect is
// the caller's: how the worker reaches the store is not part of the job.
func (c Config) Worker(id int) (Worker, error) {
	shard := c.Train
	if c.TrainExamples == 0 {
		idx, err := data.Partition(c.Train.Len(), id, c.Workers)
		if err != nil {
			return Worker{}, err
		}
		if len(idx) > 0 {
			shard = c.Train.Subset(idx)
		}
	}
	iter, err := data.NewBatchIterator(shard, c.BatchSize, c.Seed+int64(id)*1009)
	if err != nil {
		return Worker{}, err
	}
	w := Worker{
		Replica:    c.Model.Build(rand.New(rand.NewSource(c.Seed))),
		Batches:    iter,
		Iterations: c.iterations(),
		Adversary:  c.Adversaries[id],
		CrashAt:    NoCrash,
	}
	if id < len(c.WorkerDelay) {
		w.Delay = c.WorkerDelay[id]
	}
	if at, crashes := c.CrashAt[id]; crashes {
		w.CrashAt = at
	}
	return w, nil
}

// runWorker runs worker workerID of cfg over route — an in-process worker
// never reconnects.
func runWorker(cfg Config, route ps.Route, workerID int) (WorkerReport, error) {
	w, err := cfg.Worker(workerID)
	if err != nil {
		return WorkerReport{}, err
	}
	route.Worker = workerID
	w.Connect = func(rejoin bool, lastVersion int64) (ps.WorkerClient, error) {
		return ps.Connect(route, rejoin, lastVersion)
	}
	return RunWorker(w)
}
