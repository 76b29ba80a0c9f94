// Package ps implements the parameter-server framework the paper builds on:
// a versioned global parameter store, a server that applies pushed gradients
// and decides when to release workers according to a synchronization policy
// (internal/core), and a worker-side client implementing the push/pull
// protocol of Algorithm 1.
package ps

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/compress"
	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
)

// Store holds the globally shared model parameters ("the weights of the
// model") together with a monotonically increasing version: the number of
// gradient updates applied so far. The version is what staleness is measured
// against.
//
// The parameters are partitioned into contiguous, size-balanced shards, each
// guarded by its own RWMutex and updated by its own optimizer clone. Shards
// publish copy-on-write snapshots: Apply steps the optimizer on a fresh copy
// of the shard's tensors and publishes the copy, so the published tensors are
// immutable from the moment they become visible. A reader therefore only
// needs the shard lock for the instant it takes a reference
// (acquireShard), and any number of concurrent pulls proceed without
// copying or blocking behind gradient application; Apply updates the shards
// in parallel, so a single push uses multiple cores on large models. The
// shard layout is fixed at construction and immutable afterwards.
//
// Gradient application is pipelined: EnqueueApply assigns the push a ticket
// (its serial position, taken from reserved) and appends its gradient slices
// to the per-shard apply queues; persistent per-shard applier goroutines
// drain the queues, coalescing whatever is waiting into one optimizer step
// per batch (see shard.applyBatch). version — the applied version readers
// and staleness accounting see — trails reserved by the in-flight pushes
// and advances to the minimum over shards' applied counts, so version v
// still means "all of pushes 1..v are in every shard". WaitApplied blocks
// until a ticket's update is globally visible; Apply is the synchronous
// enqueue+wait composition with exactly the old semantics. Appliers start
// lazily on the first enqueue and park when idle; Close drains and stops
// them (a later enqueue restarts them).
//
// Concurrency semantics: each shard is always internally consistent, but a
// read taken while an apply is in flight may see the update on some shards
// and not yet on others. This is the same relaxation the asynchronous
// paradigms (ASP/SSP/DSSP) already embrace. It is, however, weaker than the
// old fully serialized store even under BSP: a slow worker still pulling
// after the barrier release may observe a fast worker's next-round push on
// some shards only, where the serialized store would have delivered some
// whole version. Workers that pull before computing (Algorithm 1) see
// quiescent weights whenever no push is concurrently in flight.
type Store struct {
	shards  []*shard
	ranges  []shardRange
	shapes  [][]int // global tensor index -> shape, immutable
	version atomic.Int64

	// reserved is the ticket counter: the number of pushes accepted into the
	// pipeline. version <= reserved always; they are equal when the pipeline
	// is drained.
	reserved atomic.Int64

	// aggCfg and the soft aggregation barrier (SetAggregator): window is how
	// many pushes an applier tries to collect before taking one aggregated
	// step, and demand is the highest ticket someone is known to be waiting
	// on (Flush raises it to reserved) — a shard publishes a partial window
	// as soon as a demanded ticket is sitting in it, so windowed aggregation
	// can delay releases but never deadlock them. Both stay at their
	// defaults (window 1, demand 0) for the classic sum pipeline, making
	// takeBatch's window check free in the fast path.
	aggCfg AggregatorConfig
	window atomic.Int64
	demand atomic.Int64

	// applyMu fences the apply pipeline's lifecycle: EnqueueApply holds the
	// read side across ticket assignment and queue insertion, Close and the
	// lazy start take the write side, so stopping appliers cannot race an
	// enqueue and strand a ticket.
	applyMu   sync.RWMutex
	running   bool
	stop      chan struct{}
	applierWG sync.WaitGroup

	// enqMu serializes ticket assignment with queue insertion (both under
	// applyMu's read side), so per-shard queue order always matches ticket
	// order. That is what makes "applied version >= ticket" mean "this push
	// is applied": without it two concurrent EnqueueApply calls could
	// interleave, letting the later ticket be enqueued and applied first and
	// waking the earlier ticket's waiter while its gradients still sit in a
	// queue — breaking Apply's visibility guarantee and the gradient-buffer
	// reuse contract.
	enqMu sync.Mutex

	// waitMu guards the applied-version waiters and serializes advances, so
	// waiter wakeups see version move through every batch in order.
	waitMu  sync.Mutex
	waiters []applyWaiter

	// proto is the optimizer the store was built from. The shards step their
	// own clones; proto is only kept so that SetLearningRate stays visible on
	// the instance the caller handed in.
	protoMu sync.Mutex
	proto   optimizer.Optimizer

	// metrics and tracer are nil unless a Server installed them (instrument):
	// bare stores — including the pinned hot-path benchmarks — pay one
	// pointer test per batch and nothing else. Both must be set before the
	// first enqueue; appliers read them without synchronization.
	metrics *storeMetrics
	tracer  *obs.PushTracer
}

// applyWaiter is one WaitApplied registration: ch is closed when the applied
// version reaches target.
type applyWaiter struct {
	target int64
	ch     chan struct{}
}

// NewStoreSharded returns a store initialized with deep copies of the given
// parameters, updated by the given optimizer on every Apply, in shards
// shards. shards <= 0 selects the default (one shard per CPU, capped at the
// tensor count); a count larger than the number of tensors is clamped
// (every shard must own at least one tensor). shards == 1 reproduces the
// classic single-partition store. It is newStoreRange over the whole
// partition.
func NewStoreSharded(initial []*tensor.Tensor, opt optimizer.Optimizer, shards int) (*Store, error) {
	if shards <= 0 {
		shards = defaultShards(len(initial))
	}
	if shards > len(initial) {
		shards = len(initial)
	}
	return newStoreRange(initial, opt, shards, 0, shards)
}

// SetAggregator installs the batch-reduction strategy the per-shard appliers
// use (plain sum, norm-clipped sum, trimmed mean, coordinate median) and the
// aggregation window: how many pushes an applier tries to collect before
// taking one step (below 1 means 1). It must be called before the first push
// is enqueued — swapping the estimator under a live pipeline would mix
// semantics within one window — and is driven by ServerConfig.Aggregator, with
// the window worked out from the worker count.
func (s *Store) SetAggregator(cfg AggregatorConfig, window int) error {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.running {
		return fmt.Errorf("ps: SetAggregator requires an idle apply pipeline (configure before pushes)")
	}
	s.aggCfg = cfg
	for _, sh := range s.shards {
		sh.agg = newAggregator(cfg)
	}
	if window < 1 {
		window = 1
	}
	s.window.Store(int64(window))
	return nil
}

// instrument installs apply-pipeline metrics and the push-lifecycle tracer.
// Only NewServer calls it, before any push can be enqueued; either argument
// may be nil.
func (s *Store) instrument(m *storeMetrics, tr *obs.PushTracer) {
	s.metrics = m
	s.tracer = tr
}

// QueueDepth returns the number of push tickets accepted but not yet globally
// visible — the apply pipeline's backlog.
func (s *Store) QueueDepth() int64 {
	d := s.reserved.Load() - s.version.Load()
	if d < 0 {
		return 0
	}
	return d
}

// Window returns the aggregation window currently in effect.
func (s *Store) Window() int64 { return s.window.Load() }

// SetWindow adjusts the aggregation window at run time, clamped to at least
// 1. The server shrinks it as workers finish or depart so a thinning cohort
// does not leave every remaining push waiting out the watchdog; it never
// grows the window beyond the configured one.
func (s *Store) SetWindow(n int) {
	if n < 1 {
		n = 1
	}
	s.window.Store(int64(n))
	s.wakeAppliers()
}

// Flush asks the appliers to publish everything accepted so far without
// waiting for aggregation windows to fill: it raises the demanded ticket to
// reserved and wakes every shard. Callers that need the result visible
// should WaitApplied on the ticket of interest afterwards; Flush itself does
// not block.
func (s *Store) Flush() {
	r := s.reserved.Load()
	if r <= s.version.Load() {
		return
	}
	for {
		d := s.demand.Load()
		if d >= r || s.demand.CompareAndSwap(d, r) {
			break
		}
	}
	s.wakeAppliers()
}

// wakeAppliers nudges every shard's applier to re-evaluate its queue.
func (s *Store) wakeAppliers() {
	for _, sh := range s.shards {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// Shards returns the number of shards the parameters are partitioned into.
func (s *Store) Shards() int { return len(s.shards) }

// Apply updates the parameters with one set of gradients, blocking until the
// update is visible on every shard, and returns the push's version — its
// serial position in the update sequence. It is EnqueueApply followed by
// WaitApplied: concurrent Apply calls therefore ride the same per-shard
// applier pipeline and may be coalesced into shared optimizer steps.
func (s *Store) Apply(grads []*tensor.Tensor) (int64, error) {
	ticket, err := s.EnqueueApply(grads)
	if err != nil {
		return 0, err
	}
	s.WaitApplied(ticket, nil)
	return ticket, nil
}

// EnqueueApply validates one set of gradients, assigns it the next ticket
// and hands its per-shard slices to the applier pipeline, without waiting
// for the update to be applied. The returned ticket is the push's serial
// position — exactly the version Apply would have returned — and becomes
// readable once Version reaches it (WaitApplied).
//
// The caller must keep the gradient tensors unmodified until the ticket is
// applied. The parameter server guarantees that through release gating: a
// worker only learns its push completed (and so only reuses its gradient
// buffers) after every ticket the release decision covered is applied.
func (s *Store) EnqueueApply(grads []*tensor.Tensor) (int64, error) {
	return s.EnqueueApplyWeighted(grads, 1)
}

// EnqueueApplyWeighted is EnqueueApply for a pre-aggregated gradient standing
// in for weight logical pushes — a relay's forwarded partial, whose payload
// is the coordinate-wise sum of weight children's gradients. The entry
// reserves weight consecutive tickets and the returned ticket is the LAST of
// them (the gate a release must wait on); the first is ticket-weight+1.
// Version advances by weight when the entry is applied, exactly as if the
// children had pushed individually, which is what keeps the ×k clock
// advancement indistinguishable from flat pushes for staleness accounting.
func (s *Store) EnqueueApplyWeighted(grads []*tensor.Tensor, weight int64) (int64, error) {
	if len(grads) != len(s.shapes) {
		return 0, fmt.Errorf("ps: push carries %d tensors, store has %d", len(grads), len(s.shapes))
	}
	for i, g := range grads {
		if !sameShape(g.Shape(), s.shapes[i]) {
			return 0, fmt.Errorf("ps: gradient %d shape %v does not match parameter shape %v",
				i, g.Shape(), s.shapes[i])
		}
	}
	return s.enqueue(float32Grads(grads), weight)
}

// enqueueHalf is EnqueueApplyWeighted for an fp16 push's payloads, which the
// appliers step from as they are — Store.stepsHalf must hold — so that they
// must stay unmodified until the last ticket is applied, like a dense push's
// tensors.
func (s *Store) enqueueHalf(ps []compress.Packed, weight int64) (int64, error) {
	if len(ps) != len(s.shapes) {
		return 0, fmt.Errorf("ps: push carries %d tensors, store has %d", len(ps), len(s.shapes))
	}
	grads := make([]tensor.Grad, len(ps))
	for i, p := range ps {
		if !sameShape(p.Shape, s.shapes[i]) {
			return 0, fmt.Errorf("ps: gradient %d shape %v does not match parameter shape %v",
				i, p.Shape, s.shapes[i])
		}
		n := 1
		for _, d := range p.Shape {
			n *= d
		}
		if p.Scheme != compress.SchemeF16 || len(p.Payload) != 2*n {
			return 0, fmt.Errorf("ps: gradient %d is not %d half-precision values (scheme %d, %d bytes)",
				i, n, p.Scheme, len(p.Payload))
		}
		grads[i].Half = p.Payload
	}
	return s.enqueue(grads, weight)
}

// stepsHalf reports whether the appliers step an fp16 push straight from its
// payload (enqueueHalf): every shard's optimizer has a fused step and no
// robust aggregator reads the batch as tensors.
func (s *Store) stepsHalf() bool {
	for _, sh := range s.shards {
		if _, fused := sh.opt.(optimizer.FusedStepper); !fused || sh.agg != nil {
			return false
		}
	}
	return true
}

// enqueue reserves weight tickets for grads, validated, and hands each
// shard its slice of them.
func (s *Store) enqueue(grads []tensor.Grad, weight int64) (int64, error) {
	if weight < 1 {
		return 0, fmt.Errorf("ps: push weight must be at least 1, got %d", weight)
	}
	s.applyMu.RLock()
	for !s.running {
		s.applyMu.RUnlock()
		s.startAppliers()
		s.applyMu.RLock()
	}
	// enqMu makes the ticket and the queue insertions one atomic step, so
	// every shard's queue holds pushes in ticket order (see the field doc).
	s.enqMu.Lock()
	ticket := s.reserved.Add(weight)
	for i, sh := range s.shards {
		r := s.ranges[i]
		sh.enqueue(grads[r.Start:r.End], weight)
	}
	s.enqMu.Unlock()
	s.applyMu.RUnlock()
	return ticket, nil
}

// startAppliers spawns the per-shard applier goroutines if they are not
// already running.
func (s *Store) startAppliers() {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.running {
		return
	}
	s.stop = make(chan struct{})
	s.running = true
	s.applierWG.Add(len(s.shards))
	for i := range s.shards {
		go s.applier(s.shards[i], s.stop)
	}
	if s.window.Load() > 1 || s.aggCfg.Windowed() {
		// Windowed aggregation needs a liveness net: a partial window whose
		// remaining contributors crashed, finished, or are simply slow would
		// otherwise hold its tickets (and any release gated on them)
		// forever. The watchdog force-flushes whenever a tick passes with
		// tickets outstanding and no published progress.
		s.applierWG.Add(1)
		go s.watchdog(s.stop)
	}
}

// watchdog force-publishes stalled partial aggregation windows: when a full
// DefaultFlushInterval elapses with pushes reserved but the applied version not
// moving, it flushes. Worst-case added release latency is therefore two
// ticks; steady-state full windows never wait for it.
func (s *Store) watchdog(stop <-chan struct{}) {
	defer s.applierWG.Done()
	ticker := time.NewTicker(DefaultFlushInterval)
	defer ticker.Stop()
	last := int64(-1)
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			v := s.version.Load()
			if v == last && s.reserved.Load() > v {
				s.Flush()
			}
			last = v
		}
	}
}

// applier is one shard's persistent apply loop: it drains the shard's queue
// in batches — coalescing everything waiting into one optimizer step — and
// advances the store's applied version after each batch. It parks on the
// shard's wake channel when idle and exits, after a final drain, when stop
// closes.
func (s *Store) applier(sh *shard, stop <-chan struct{}) {
	defer s.applierWG.Done()
	for {
		if batch, weights := sh.takeBatch(s.window.Load(), s.demand.Load()); len(batch) > 0 {
			sh.applyBatch(batch, weights, s.metrics, s.tracer)
			s.advanceApplied()
			continue
		}
		select {
		case <-sh.wake:
		case <-stop:
			// Everything enqueued before Close's fence is in the queue by
			// now; drain it so no accepted ticket is lost.
			for {
				batch, weights := sh.takePending()
				if len(batch) == 0 {
					return
				}
				sh.applyBatch(batch, weights, s.metrics, s.tracer)
				s.advanceApplied()
			}
		}
	}
}

// advanceApplied publishes the new applied version — the minimum over
// shards' applied push counts — waking every waiter it satisfies. Appliers
// call nothing beyond this: they must never block on locks outside the
// store, or Close's drain (and anything waiting on it) could deadlock
// against a store client holding such a lock.
func (s *Store) advanceApplied() {
	min := int64(math.MaxInt64)
	for _, sh := range s.shards {
		if v := sh.applied.Load(); v < min {
			min = v
		}
	}
	s.waitMu.Lock()
	prev := s.version.Load()
	if min <= prev {
		// Another applier already published at least this far, or this
		// shard is ahead of a sibling still catching up.
		s.waitMu.Unlock()
		return
	}
	s.version.Store(min)
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if w.target <= min {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	s.waiters = kept
	s.waitMu.Unlock()
}

// WaitApplied blocks until the applied version reaches ticket (returning
// true) or cancel closes (returning false). A nil cancel waits forever —
// safe whenever the ticket came from EnqueueApply on this store, because
// accepted tickets are always eventually applied, even across Close.
func (s *Store) WaitApplied(ticket int64, cancel <-chan struct{}) bool {
	if s.version.Load() >= ticket {
		return true
	}
	s.waitMu.Lock()
	if s.version.Load() >= ticket {
		s.waitMu.Unlock()
		return true
	}
	ch := make(chan struct{})
	s.waiters = append(s.waiters, applyWaiter{target: ticket, ch: ch})
	s.waitMu.Unlock()
	if cancel == nil {
		<-ch
		return true
	}
	select {
	case <-ch:
		return true
	case <-cancel:
		// Deregister so abandoned waiters don't accumulate across retries
		// (the slice would otherwise only shrink when the version catches
		// up, which for a stopped server is never).
		s.waitMu.Lock()
		for i, w := range s.waiters {
			if w.ch == ch {
				last := len(s.waiters) - 1
				s.waiters[i] = s.waiters[last]
				s.waiters[last] = applyWaiter{}
				s.waiters = s.waiters[:last]
				s.waitMu.Unlock()
				return false
			}
		}
		// Not found: advanceApplied already closed ch, so the target was in
		// fact reached before the cancel won the select.
		s.waitMu.Unlock()
		return true
	}
}

// Reserved returns the number of pushes accepted into the apply pipeline so
// far; Reserved() - Version() of them are still in flight.
func (s *Store) Reserved() int64 { return s.reserved.Load() }

// Close drains the apply pipeline — every accepted ticket is applied — and
// stops the per-shard applier goroutines. It is idempotent, and not final: a
// later EnqueueApply restarts the appliers. Callers that only ever read the
// store never start appliers and never need Close; a store whose pipeline
// was started holds one parked goroutine per shard until Close runs
// (Server.Stop closes the store it serves).
//
// The applier drain happens while holding the lifecycle lock: an
// EnqueueApply racing Close either lands its tickets before the drain (and
// they are applied by it) or blocks until Close returns and restarts fresh
// appliers — two applier generations can never run concurrently on one
// shard.
func (s *Store) Close() {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if !s.running {
		return
	}
	s.running = false
	close(s.stop)
	s.applierWG.Wait()
}

// Snapshot returns deep copies of the current parameters and their version.
// Each shard's lock is held only while grabbing a referenced generation; the
// copying happens outside all locks, so snapshots from many workers proceed
// concurrently and never block gradient application. The reference is
// released as soon as the copy completes, so snapshots never exclude a
// generation's buffers from the applier's reuse pool.
func (s *Store) Snapshot() ([]*tensor.Tensor, int64) {
	version := s.version.Load()
	out := make([]*tensor.Tensor, len(s.shapes))
	for i, sh := range s.shards {
		base := s.ranges[i].Start
		g, _ := sh.acquire()
		for j, p := range g.params {
			out[base+j] = p.Clone()
		}
		g.release()
	}
	return out, version
}

// acquirePacked returns shard i's published parameters in the compressed
// form produced by pack. The packed form is cached per shard and recomputed
// only after a newer snapshot is published, so concurrent pulls from any
// number of workers share one compression pass per update. It is the
// compressed twin of acquireShard: packed is immutable and valid until
// release is called on the returned pin — exactly once, after the message
// carrying it has been sent — and the cache fill that supersedes it may then
// rewrite its buffers, so steady-state compressed pulls allocate nothing. pack
// receives the retired form to recycle (nil when none is free) and returns the
// new one; compress.PackInto has that shape.
//
// All callers of a store must pass an equivalent pack function: the cache is
// keyed on the shard version only, which is exactly the pull path's shape —
// one server, one negotiated codec.
func (s *Store) acquirePacked(i int, pack func(dst []compress.Packed, params []*tensor.Tensor) []compress.Packed) (packed []compress.Packed, pin *genPin) {
	return s.shards[i].acquirePacked(pack)
}

// acquirePacked serves the shard's packed cache, filling it first when a newer
// snapshot than the cached one is published, and returns the packed form
// with the generation served pinned. Where the server shares a generation
// region, packed generations are allocated there as parameter generations
// are (takeGen): a heap one makes way, and a same-host pull of the cache is a
// reference.
func (sh *shard) acquirePacked(pack func(dst []compress.Packed, params []*tensor.Tensor) []compress.Packed) (packed []compress.Packed, pin *genPin) {
	// The compressed form never aliases the parameter buffers, so the
	// generation is held only for the fill.
	g, local := sh.acquire()
	defer g.release()
	sh.packedMu.Lock()
	defer sh.packedMu.Unlock()
	if sh.packed == nil || sh.packed.version < local {
		alloc := sh.region.Load()
		next, ok := sh.packedRetired.take()
		for ok && alloc != nil && next.free == nil {
			next, ok = sh.packedRetired.take()
		}
		if !ok {
			next = &packedGen{}
		}
		next.packed, next.version = pack(next.packed, g.params), local
		if !ok {
			regionPacked(next, alloc)
		}
		if sh.packed != nil {
			old, _ := sh.packedRetired.retire(sh.packed)
			sh.evictPacked(old)
		}
		sh.packed = next
	}
	// When another goroutine cached an even newer snapshot between our view
	// and the lock, serve that one: pulls always get the freshest published
	// state available.
	pg := sh.packed
	pg.refs.Add(1)
	return pg.packed, &pg.genPin
}

// evictPacked lets go of gens, packed generations the cache will not serve
// again, as evict does parameter generations. Caller holds sh.packedMu.
func (sh *shard) evictPacked(gens ...*packedGen) {
	for _, g := range gens {
		if g != nil && g.free != nil {
			sh.packedEvicted = append(sh.packedEvicted, g)
		}
	}
	sh.packedEvicted = slices.DeleteFunc(sh.packedEvicted, (*packedGen).freed)
}

// regionAlloc carves a generation out of a server's shared generation region
// (transport.RegionHost).
type regionAlloc = func(n int) (mem []float32, reclaim func() bool, free func())

// shareRegion makes every shard allocate its generations in the region alloc
// carves, so that same-host pulls reference them instead of copying them. The
// current generation moves there too — the same weights at the same version —
// so that no pull copies, from the first on; the heap one it replaces
// retires like any superseded generation, and heap generations make way as
// the pool is drawn on (takeGen).
func (s *Store) shareRegion(alloc regionAlloc) {
	for _, sh := range s.shards {
		sh.region.Store(&alloc)
		sh.mu.Lock()
		if g := sh.regionGen(&alloc); g != nil {
			for i, p := range sh.gen.params {
				copy(g.params[i].Data(), p.Data())
			}
			sh.supersede(sh.gen)
			sh.gen = g
		}
		sh.mu.Unlock()
	}
}

// unshareRegion moves the store back to the heap once the server that shared
// a region with it has stopped: the current generation is copied out and
// every region generation evicted (shard.evict), packed ones included
// (shard.evictPacked; the next fill packs on the heap), so that the store,
// which outlives the server, keeps none of the region's extents.
func (s *Store) unshareRegion() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.region.Store(nil)
		if cur := sh.gen; cur.free != nil {
			sh.gen = sh.heapGen()
			for i, p := range cur.params {
				copy(sh.gen.params[i].Data(), p.Data())
			}
			sh.evict(cur)
		}
		sh.evict(sh.retired...)
		sh.retired = slices.DeleteFunc(sh.retired, func(g *paramGen) bool { return g.free != nil })
		sh.mu.Unlock()
		sh.packedMu.Lock()
		if cur := sh.packed; cur != nil && cur.free != nil {
			sh.packed = nil
			sh.evictPacked(cur)
		}
		sh.evictPacked(sh.packedRetired...)
		sh.packedRetired = slices.DeleteFunc(sh.packedRetired, func(g *packedGen) bool { return g.free != nil })
		sh.packedMu.Unlock()
	}
}

// Version returns the number of updates applied so far.
func (s *Store) Version() int64 { return s.version.Load() }

// SetLearningRate adjusts the optimizer's learning rate on every shard. Its
// one caller outside tests is install, which restores a checkpoint's rate.
func (s *Store) SetLearningRate(lr float64) {
	s.protoMu.Lock()
	s.proto.SetLearningRate(lr)
	s.protoMu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.opt.SetLearningRate(lr)
		sh.mu.Unlock()
	}
}

// sameShape reports whether two dimension lists are identical.
func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
