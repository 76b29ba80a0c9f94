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
	// Fanout, when >= 2, interposes the aggregation-relay tier (DESIGN.md
	// §11): relay r fronts workers [r*Fanout, (r+1)*Fanout), sums their
	// pushes into one partial and forwards a single frame to the root, so
	// the root link carries O(workers/Fanout) frames per round instead of
	// O(workers). Child hops ride per-relay links; only relay frames
	// contend on the root link. A relay forwards a partial incomplete once
	// it has waited relayFlush for straggling members. 0 or 1 means flat.
	Fanout int
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
	// RootIngressFrames counts push frames arriving at the root: one per
	// worker push when flat, one per forwarded relay partial under
	// RunConfig.Fanout >= 2.
	RootIngressFrames int
	// RootIngressBytes is the gradient payload carried by those frames (a
	// summed partial is one model-sized gradient regardless of how many
	// pushes it folds).
	RootIngressBytes int
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
	// evRelayIngress fires when a push has fully arrived at the worker's
	// relay (RunConfig.Fanout >= 2).
	evRelayIngress
	// evRelayArrive fires when a forwarded relay partial has fully arrived
	// at the root.
	evRelayArrive
	// evRelayFlush is a relay's watchdog: it forwards a partial that has
	// waited relayFlush for straggling group members.
	evRelayFlush
)

// event is one entry of the simulation's time-ordered queue.
type event struct {
	at     time.Duration
	seq    int
	kind   eventKind
	worker int
	// batch lists the logical pushes folded into a relay frame
	// (evRelayArrive), in arrival order at the relay.
	batch []int
	// gen is the partial generation an evRelayFlush watchdog was armed
	// for; a stale generation means the partial already flushed.
	gen int
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

	// Relay tier state (Fanout >= 2): worker grouping, per-relay child
	// links, and each relay's pending partial.
	fanout          int
	groupOf         []int
	groups          [][]int
	relayLinkFreeAt []time.Duration
	partials        []relayPartialSim

	linkFreeAt time.Duration
	cpuFreeAt  time.Duration

	result *RunResult
}

// relayPartialSim is one relay's windowed partial: the pushes summed so far
// and a generation counter that invalidates armed watchdogs on flush.
type relayPartialSim struct {
	entries []int
	member  map[int]bool
	gen     int
}

// relayFlush bounds how long a relay partial waits for straggling group
// members before forwarding incomplete; it mirrors the real relay's
// watchdog, ps.DefaultRelayFlushInterval.
const relayFlush = 50 * time.Millisecond

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
	if cfg.Fanout < 0 {
		return nil, fmt.Errorf("simulate: fanout must be >= 0, got %d", cfg.Fanout)
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
	if cfg.Fanout >= 2 {
		sim.fanout = cfg.Fanout
		sim.groupOf = make([]int, workers)
		for w := 0; w < workers; w++ {
			g := w / cfg.Fanout
			sim.groupOf[w] = g
			for g >= len(sim.groups) {
				sim.groups = append(sim.groups, nil)
			}
			sim.groups[g] = append(sim.groups[g], w)
		}
		sim.relayLinkFreeAt = make([]time.Duration, len(sim.groups))
		sim.partials = make([]relayPartialSim, len(sim.groups))
		for g := range sim.partials {
			sim.partials[g].member = make(map[int]bool, cfg.Fanout)
		}
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
	s.scheduleEvent(event{at: at, kind: kind, worker: worker})
}

// scheduleEvent enqueues a fully specified event.
func (s *simulation) scheduleEvent(ev event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(s.queue, ev)
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
		case evRelayIngress:
			s.onRelayIngress(ev)
		case evRelayArrive:
			s.onRelayArrive(ev)
		case evRelayFlush:
			s.onRelayFlush(ev)
		}
	}
}

// effectiveTransfer returns worker w's transfer cost on the critical path at
// time now: barrier paradigms pay it in full, asynchronous-like paradigms
// hide CommOverlap of it behind computation, and the worker's link model
// (if any) scales the result by its current Markov state.
func (s *simulation) effectiveTransfer(w int, now time.Duration) time.Duration {
	return time.Duration(float64(s.baseTransfer()) * s.links[w].multiplier(now, s.rng))
}

// baseTransfer is the overlap-adjusted transfer cost before any per-worker
// link degradation — what a relay's trunk (a calm datacenter link) pays.
func (s *simulation) baseTransfer() time.Duration {
	base := s.transfer
	if !s.aggregated {
		overlap := s.cfg.Cluster.CommOverlap
		if overlap < 0 {
			overlap = 0
		}
		if overlap > 1 {
			overlap = 1
		}
		base = time.Duration(float64(s.transfer) * (1 - overlap))
	}
	return base
}

// onComputeDone sends the worker's gradient to the server over the shared
// link.
func (s *simulation) onComputeDone(ev event) {
	// Under the relay tier the push rides the relay's child link instead of
	// contending on the root's — that contention shift is the tier's point.
	link := &s.linkFreeAt
	kind := evPushArrive
	if s.fanout >= 2 {
		link = &s.relayLinkFreeAt[s.groupOf[ev.worker]]
		kind = evRelayIngress
	}
	arrival := acquire(link, ev.at, s.effectiveTransfer(ev.worker, ev.at))
	s.schedule(arrival, kind, ev.worker)
}

// onPushArrive applies the update and starts the pull transfer of every
// released worker.
func (s *simulation) onPushArrive(ev event) {
	w := ev.worker
	s.result.RootIngressFrames++
	s.result.RootIngressBytes += s.cfg.Model.Bytes()
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

// doneFor reports whether a worker has completed its course: no iterations
// left and no push awaiting release. A relay partial never waits on it.
func (s *simulation) doneFor(w int) bool { return s.remaining[w] <= 0 && !s.waiting[w] }

// relayComplete reports whether relay g's partial holds a contribution from
// every group member still expected to push — the real relay's "full" flush
// condition.
func (s *simulation) relayComplete(g int) bool {
	p := &s.partials[g]
	if len(p.entries) == 0 {
		return false
	}
	for _, w := range s.groups[g] {
		if s.doneFor(w) {
			continue
		}
		if !p.member[w] {
			return false
		}
	}
	return true
}

// flushRelay forwards relay g's pending partial to the root as one frame on
// the root link, and invalidates any armed watchdog via the generation bump.
func (s *simulation) flushRelay(g int, at time.Duration) {
	p := &s.partials[g]
	if len(p.entries) == 0 {
		return
	}
	batch := p.entries
	p.entries = nil
	p.member = make(map[int]bool, s.fanout)
	p.gen++
	arrival := acquire(&s.linkFreeAt, at, s.baseTransfer())
	s.scheduleEvent(event{at: arrival, kind: evRelayArrive, worker: batch[0], batch: batch})
}

// onRelayIngress folds an arrived push into its relay's partial. A duplicate
// contribution flushes the open window first (the worker has lapped its
// peers); a partial covering every expected member flushes immediately.
func (s *simulation) onRelayIngress(ev event) {
	w := ev.worker
	g := s.groupOf[w]
	s.remaining[w]--
	s.pushArrivedAt[w] = ev.at
	s.waiting[w] = true
	p := &s.partials[g]
	if p.member[w] {
		s.flushRelay(g, ev.at)
	}
	if len(p.entries) == 0 {
		// First entry of a fresh partial: arm the straggler watchdog.
		s.scheduleEvent(event{at: ev.at + relayFlush, kind: evRelayFlush, worker: w, gen: p.gen})
	}
	p.entries = append(p.entries, w)
	p.member[w] = true
	if s.relayComplete(g) {
		s.flushRelay(g, ev.at)
	}
}

// onRelayFlush is the armed watchdog firing: if the partial it was armed for
// is still open, straggling members have held it past relayFlush — forward
// it incomplete, exactly like the real relay.
func (s *simulation) onRelayFlush(ev event) {
	g := s.groupOf[ev.worker]
	if s.partials[g].gen == ev.gen {
		s.flushRelay(g, ev.at)
	}
}

// onRelayArrive processes one forwarded partial at the root: a single frame
// of ingress whose embedded entries each reach the policy as a logical push,
// applied as one weighted update — version advances by the batch size.
func (s *simulation) onRelayArrive(ev event) {
	s.result.RootIngressFrames++
	s.result.RootIngressBytes += s.cfg.Model.Bytes()
	var release []core.WorkerID
	for _, w := range ev.batch {
		decision := s.policy.OnPush(core.WorkerID(w), time.Unix(0, 0).Add(ev.at))
		staleness := s.version - s.baseVersion[w]
		s.version++
		s.result.Updates = append(s.result.Updates, UpdateEvent{At: ev.at, Worker: w, Staleness: staleness})
		release = append(release, decision.Release...)
	}
	// One weighted apply per frame, however many pushes it folds — the relay
	// already paid the summing. A flushed partial is never empty.
	readyAt := acquire(&s.cpuFreeAt, ev.at, s.applyCost+s.keyCost)
	s.releaseWorkers(release, readyAt)
}

// pullLink is the link a worker's pull rides: the root's when flat, its
// relay's child link under the aggregation tier.
func (s *simulation) pullLink(w int) *time.Duration {
	if s.fanout >= 2 {
		return &s.relayLinkFreeAt[s.groupOf[w]]
	}
	return &s.linkFreeAt
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
			if s.fanout >= 2 && s.relayComplete(s.groupOf[r]) {
				// Its relay no longer expects it; a partial waiting only
				// on this worker is complete now.
				s.flushRelay(s.groupOf[r], releaseAt)
			}
			continue
		}
		// Pull the fresh weights over the shared link (the relay's child
		// link under the tier — pulls pass through the relay's cache).
		pullDone := acquire(s.pullLink(r), releaseAt, s.effectiveTransfer(r, releaseAt))
		s.baseVersion[r] = s.version
		s.schedule(pullDone, evPullDone, r)
	}
}

// onPullDone starts the worker's next compute phase.
func (s *simulation) onPullDone(ev event) {
	s.schedule(ev.at+s.computeTime(ev.worker), evComputeDone, ev.worker)
}
