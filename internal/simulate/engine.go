package simulate

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dssp/internal/core"
)

// RunConfig describes one simulated training run.
type RunConfig struct {
	// Model is the architecture being trained.
	Model ModelProfile
	// Cluster is the hardware the run executes on.
	Cluster ClusterSpec
	// Policy selects the synchronization paradigm. Workers is filled in from
	// the cluster automatically.
	Policy core.PolicyConfig
	// IterationsPerWorker is how many mini-batches each worker processes.
	IterationsPerWorker int
	// Links assigns Markov-modulated delay models to worker links (see
	// LinkModel and the Link* presets). Every key must name a worker of the
	// cluster; workers absent from the map have calm links.
	Links map[int]LinkModel
	// Seed drives compute-time jitter.
	Seed int64
}

// UpdateEvent records one gradient update applied to the global weights.
type UpdateEvent struct {
	// At is the elapsed simulated time of the update.
	At time.Duration
	// Worker identifies the pushing worker.
	Worker int
	// Staleness is the number of updates applied between the worker's pull
	// and this update.
	Staleness int
}

// RunResult is the outcome of one simulated run.
type RunResult struct {
	// Label is the paradigm description.
	Label string
	// Updates lists every applied update in time order.
	Updates []UpdateEvent
	// Finish is when the last worker completed its final iteration.
	Finish time.Duration
	// Waits is the total synchronization waiting time per worker.
	Waits []time.Duration
	// Bounded reports whether the paradigm guarantees any staleness bound
	// (every paradigm except ASP).
	Bounded bool
}

// MeanStaleness returns the average staleness over all applied updates,
// each clamped at 0 (0 when none was applied).
func (r *RunResult) MeanStaleness() float64 {
	if len(r.Updates) == 0 {
		return 0
	}
	var sum int64
	for _, u := range r.Updates {
		sum += int64(max(u.Staleness, 0))
	}
	return float64(sum) / float64(len(r.Updates))
}

// MaxStaleness returns the largest staleness of any applied update (0 when
// none was applied).
func (r *RunResult) MaxStaleness() int {
	m := 0
	for _, u := range r.Updates {
		m = max(m, u.Staleness)
	}
	return m
}

// StalenessQuantile returns the smallest staleness v such that at least q
// (clamped to 0..1) of the applied updates have staleness <= v, each clamped
// at 0; 0 when none was applied.
func (r *RunResult) StalenessQuantile(q float64) int {
	if len(r.Updates) == 0 {
		return 0
	}
	vs := make([]int, len(r.Updates))
	for i, u := range r.Updates {
		vs[i] = max(u.Staleness, 0)
	}
	sort.Ints(vs)
	need := int(math.Ceil(min(max(q, 0), 1) * float64(len(vs))))
	return vs[max(need, 1)-1]
}

// Throughput returns applied updates per second of simulated time.
func (r *RunResult) Throughput() float64 {
	if r.Finish <= 0 {
		return 0
	}
	return float64(len(r.Updates)) / r.Finish.Seconds()
}

// Event kinds used by the simulator.
type eventKind int

const (
	// evComputeDone fires when a worker finishes computing its mini-batch
	// gradient and is ready to push.
	evComputeDone eventKind = iota + 1
	// evPushArrive fires when the pushed gradient has fully arrived at the
	// server.
	evPushArrive
	// evPullDone fires when a released worker has finished pulling the
	// fresh global weights.
	evPullDone
)

// event is one entry of the simulation's time-ordered queue.
type event struct {
	at     time.Duration
	seq    int
	kind   eventKind
	worker int
}

// eventQueue is a min-heap of events ordered by time then insertion order.
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// simulation carries the mutable state of one run.
type simulation struct {
	cfg        RunConfig
	policy     core.Policy
	aggregated bool
	rng        *rand.Rand

	transfer  time.Duration
	applyCost time.Duration
	keyCost   time.Duration

	queue *eventQueue
	seq   int

	remaining     []int
	baseVersion   []int
	pushArrivedAt []time.Duration
	waiting       []bool
	finishedAt    []time.Duration
	version       int

	// links is the per-worker Markov link state.
	links []linkState

	linkFreeAt time.Duration
	cpuFreeAt  time.Duration

	result *RunResult
}

// Run executes one simulated training run.
func Run(cfg RunConfig) (*RunResult, error) {
	workers := cfg.Cluster.NumWorkers()
	if workers == 0 {
		return nil, fmt.Errorf("simulate: cluster has no workers")
	}
	if cfg.IterationsPerWorker <= 0 {
		return nil, fmt.Errorf("simulate: iterations per worker must be positive, got %d", cfg.IterationsPerWorker)
	}
	if cfg.Cluster.LinkBandwidth <= 0 || cfg.Cluster.ApplyRate <= 0 {
		return nil, fmt.Errorf("simulate: cluster bandwidth and apply rate must be positive")
	}
	for w := range cfg.Links {
		if w < 0 || w >= workers {
			return nil, fmt.Errorf("simulate: link model names worker %d outside [0,%d)", w, workers)
		}
	}
	cfg.Policy.Workers = workers
	policy, err := core.NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}

	sim := &simulation{
		cfg:    cfg,
		policy: policy,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		transfer: cfg.Cluster.LinkLatency +
			time.Duration(float64(cfg.Model.Bytes())/cfg.Cluster.LinkBandwidth*float64(time.Second)),
		applyCost: time.Duration(float64(cfg.Model.Params) / cfg.Cluster.ApplyRate * float64(time.Second)),
		keyCost:   time.Duration(cfg.Model.Layers) * cfg.Cluster.PerKeyOverhead,
		queue:     &eventQueue{},

		remaining:     make([]int, workers),
		baseVersion:   make([]int, workers),
		pushArrivedAt: make([]time.Duration, workers),
		waiting:       make([]bool, workers),
		finishedAt:    make([]time.Duration, workers),

		result: &RunResult{
			Label: cfg.Policy.Describe(),
			Waits: make([]time.Duration, workers),
		},
	}
	// Synchronous paradigms (staleness bound 0: BSP, which is SSP(0))
	// aggregate the round's gradients into a single server-side update; the
	// others pay the apply and per-key cost on every push.
	bound, bounded := policy.StalenessBound()
	sim.aggregated = bounded && bound == 0
	sim.result.Bounded = bounded

	sim.links = make([]linkState, workers)
	for w := 0; w < workers; w++ {
		sim.links[w] = newLinkState(cfg.Links[w])
	}
	for w := 0; w < workers; w++ {
		sim.remaining[w] = cfg.IterationsPerWorker
		sim.schedule(sim.computeTime(w), evComputeDone, w)
	}
	sim.run()

	for _, at := range sim.finishedAt {
		if at > sim.result.Finish {
			sim.result.Finish = at
		}
	}
	return sim.result, nil
}

// schedule enqueues an event.
func (s *simulation) schedule(at time.Duration, kind eventKind, worker int) {
	heap.Push(s.queue, event{at: at, seq: s.seq, kind: kind, worker: worker})
	s.seq++
}

// computeTime samples one mini-batch duration for the given worker.
func (s *simulation) computeTime(w int) time.Duration {
	mean := float64(s.cfg.Model.ComputeTime) / s.cfg.Cluster.Workers[w].Speed
	jitter := 1 + s.cfg.Cluster.ComputeJitter*s.rng.NormFloat64()
	if jitter < 0.3 {
		jitter = 0.3
	}
	return time.Duration(mean * jitter)
}

// acquire reserves a FIFO shared resource starting no earlier than now and
// returns the completion time.
func acquire(freeAt *time.Duration, now, cost time.Duration) time.Duration {
	start := now
	if *freeAt > start {
		start = *freeAt
	}
	end := start + cost
	*freeAt = end
	return end
}

// run drains the event queue.
func (s *simulation) run() {
	for s.queue.Len() > 0 {
		ev := heap.Pop(s.queue).(event)
		switch ev.kind {
		case evComputeDone:
			s.onComputeDone(ev)
		case evPushArrive:
			s.onPushArrive(ev)
		case evPullDone:
			s.onPullDone(ev)
		}
	}
}

// effectiveTransfer returns worker w's transfer cost on the critical path at
// time now: barrier paradigms pay it in full, asynchronous-like paradigms
// hide CommOverlap of it behind computation, and the worker's link model
// (if any) scales the result by its current Markov state.
func (s *simulation) effectiveTransfer(w int, now time.Duration) time.Duration {
	base := s.transfer
	if !s.aggregated {
		overlap := min(max(s.cfg.Cluster.CommOverlap, 0), 1)
		base = time.Duration(float64(s.transfer) * (1 - overlap))
	}
	return time.Duration(float64(base) * s.links[w].multiplier(now, s.rng))
}

// onComputeDone sends the worker's gradient to the server over the shared
// link.
func (s *simulation) onComputeDone(ev event) {
	arrival := acquire(&s.linkFreeAt, ev.at, s.effectiveTransfer(ev.worker, ev.at))
	s.schedule(arrival, evPushArrive, ev.worker)
}

// onPushArrive applies the update and starts the pull transfer of every
// released worker.
func (s *simulation) onPushArrive(ev event) {
	w := ev.worker
	s.remaining[w]--
	s.pushArrivedAt[w] = ev.at
	s.waiting[w] = true

	decision := s.policy.OnPush(core.WorkerID(w), time.Unix(0, 0).Add(ev.at))

	staleness := s.version - s.baseVersion[w]
	s.version++
	s.result.Updates = append(s.result.Updates, UpdateEvent{At: ev.at, Worker: w, Staleness: staleness})

	// Server CPU cost: per-push for asynchronous paradigms, once per barrier
	// round for aggregating ones.
	readyAt := ev.at
	if !s.aggregated || len(decision.Release) > 0 {
		readyAt = acquire(&s.cpuFreeAt, ev.at, s.applyCost+s.keyCost)
	}

	s.releaseWorkers(decision.Release, readyAt)
}

// releaseWorkers processes a policy release list: waiting workers resume
// (pull then compute) or finish, and their synchronization wait is recorded.
func (s *simulation) releaseWorkers(release []core.WorkerID, readyAt time.Duration) {
	for _, id := range release {
		r := int(id)
		if !s.waiting[r] {
			continue
		}
		s.waiting[r] = false
		releaseAt := readyAt
		if s.pushArrivedAt[r] > releaseAt {
			releaseAt = s.pushArrivedAt[r]
		}
		s.result.Waits[r] += releaseAt - s.pushArrivedAt[r]

		if s.remaining[r] <= 0 {
			// The worker has pushed its final gradient; it only needed the
			// release to know the round completed. Mirroring the real
			// server (Done then session close), it leaves the policy's
			// accounting so laggards are not held to its frozen clock.
			s.finishedAt[r] = releaseAt
			d := s.policy.OnLeave(core.WorkerID(r), time.Unix(0, 0).Add(releaseAt))
			s.releaseWorkers(d.Release, releaseAt)
			continue
		}
		// Pull the fresh weights over the shared link.
		pullDone := acquire(&s.linkFreeAt, releaseAt, s.effectiveTransfer(r, releaseAt))
		s.baseVersion[r] = s.version
		s.schedule(pullDone, evPullDone, r)
	}
}

// onPullDone starts the worker's next compute phase.
func (s *simulation) onPullDone(ev event) {
	s.schedule(ev.at+s.computeTime(ev.worker), evComputeDone, ev.worker)
}
