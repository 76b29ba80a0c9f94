package ps

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
)

// shard is one independently locked partition of the model: a contiguous run
// of parameter tensors, published as generations that each record the
// applied version they hold, and the optimizer state that updates them.
//
// Each shard has its own optimizer clone so that lazily allocated
// per-parameter state (momentum velocity) is indexed by position within the
// shard, never by global tensor index.
//
// Updates are not applied by the pushing goroutine: EnqueueApply appends the
// shard's gradient slice to pending, and a persistent per-shard applier
// goroutine (Store.applier) drains the queue. When several pushes are queued
// the applier coalesces them into one optimizer step over the whole batch
// with one copy-on-write publication, advancing applied — and the version the
// published generation holds — by the batch size, so version semantics are
// indistinguishable from applying the pushes one at a time.
type shard struct {
	mu  sync.RWMutex
	gen *paramGen
	opt *optimizer.SGD

	// retired is the pool of superseded generations awaiting reuse
	// (paramgen.go), guarded by mu; region, once the server shares one, is
	// where new generations are allocated (Store.shareRegion).
	retired retirePool[*paramGen]
	region  atomic.Pointer[regionAlloc]
	// evicted are the region generations the pool let go of that a reader
	// here (a reply not yet sent) still held: freed once it lets go. Guarded
	// by mu.
	evicted []*paramGen

	// agg replaces plain summation when a robust aggregator is configured
	// (Store.SetAggregator); nil lets the optimizer sum the batch as it
	// steps. Only the applier reads it after configuration.
	agg aggregator

	// applied counts the pushes this shard has absorbed, re-based by an
	// install; the store-wide applied version is the minimum over shards.
	// Only the applier and install write it.
	applied atomic.Int64

	// pendingMu guards pending (the queue feeding this shard's applier) and
	// weights, its parallel per-entry weight list: an entry of weight k is a
	// pre-aggregated gradient standing in for k logical pushes (a relay's
	// forwarded partial), counting k tickets toward window fills and version
	// advancement. pendingWeight is the queued weight total. wake has one
	// slot and is signalled after every enqueue. spare and spareWeights are
	// the drained-out queue slices from the previous batch, recycled so the
	// steady state allocates no queue storage.
	pendingMu     sync.Mutex
	pending       [][]tensor.Grad
	weights       []int64
	pendingWeight int64
	spare         [][]tensor.Grad
	spareWeights  []int64
	wake          chan struct{}

	// views holds, per batch entry, the tensor headers a robust aggregator
	// sees its sources through, reused across batches. Only the applier
	// touches it.
	views [][]*tensor.Tensor

	// packed caches the compressed form of the published snapshot for the
	// compressed pull path; packedRetired holds the superseded forms whose
	// buffers the next fill recycles once their readers are done (bounded by
	// retiredGens, like retired), and packedEvicted the region ones let go of
	// while a reader here still held them, as evicted does. Guarded by
	// packedMu, separate from mu so a cache fill never blocks gradient
	// application or uncompressed readers.
	packedMu      sync.Mutex
	packed        *packedGen
	packedRetired retirePool[*packedGen]
	packedEvicted []*packedGen
}

// enqueue appends one push's gradient sources to the shard's apply queue with
// the given ticket weight (1 for an ordinary push, k for a relay partial
// standing in for k logical pushes) and wakes the applier. The tensors must
// stay unmodified until the push's last ticket is applied
// (Store.WaitApplied); the server's release gating guarantees that for every
// wire path.
func (sh *shard) enqueue(grads []tensor.Grad, weight int64) {
	sh.pendingMu.Lock()
	sh.pending = append(sh.pending, grads)
	sh.weights = append(sh.weights, weight)
	sh.pendingWeight += weight
	sh.pendingMu.Unlock()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// takePending swaps out the current queue contents, returning them as one
// batch (nil when the queue is empty). The swapped-in slices are the previous
// batch's storage, so two batches' worth of queue capacity is reused
// indefinitely.
func (sh *shard) takePending() ([][]tensor.Grad, []int64) {
	return sh.takeBatch(1, 0)
}

// takeBatch is the window-aware queue drain: it returns the queued pushes
// (and their parallel ticket weights) as one batch when the soft aggregation
// barrier is met — at least window tickets' worth of weight is waiting, or a
// demanded ticket (a queued release, an explicit flush) lies beyond what
// this shard has applied — and nil otherwise, leaving the queue to keep
// filling. window 1 reproduces the classic drain-whatever-is-there behaviour
// exactly.
func (sh *shard) takeBatch(window, demand int64) ([][]tensor.Grad, []int64) {
	sh.pendingMu.Lock()
	n := sh.pendingWeight
	if n == 0 || (n < window && demand <= sh.applied.Load()) {
		sh.pendingMu.Unlock()
		return nil, nil
	}
	batch, weights := sh.pending, sh.weights
	sh.pending = sh.spare[:0]
	sh.weights = sh.spareWeights[:0]
	sh.pendingWeight = 0
	sh.pendingMu.Unlock()
	sh.spare = batch
	sh.spareWeights = weights
	return batch, weights
}

// applyBatch absorbs one batch of queued gradient slices under the shard's
// write lock, copy-on-write: the update is written into a destination
// generation that is either a recycled retired generation (steady state:
// zero allocations) or freshly allocated buffers, and published; tensors
// already handed out to readers are never mutated. applied, and the version
// the published generation holds, advance by the batch's total ticket weight
// — the batch size when every entry is an ordinary weight-1 push, more when
// relay partials (each standing in for several logical pushes) are present —
// so readers observe the same counts as applying every logical push one at a
// time.
//
// With no robust aggregator the whole batch — gradient sum, momentum,
// parameter write — is applied in one pass straight from the queued
// gradients into the destination buffers, an fp16 push's straight from its
// payload, bit-identical to summing the batch and stepping once
// (optimizer.SGD.StepFrom). Only this path sees half sources
// (Store.stepsHalf); an aggregator reads float32 ones as tensors, and its
// combined gradient is stepped as a batch of one.
//
// m and tr are the server-installed instrumentation (Store.instrument);
// both may be nil, in which case the method takes no timestamps at all.
func (sh *shard) applyBatch(batch [][]tensor.Grad, weights []int64, m *storeMetrics, tr *obs.PushTracer) {
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	total := int64(0)
	for _, w := range weights {
		total += w
	}
	// The aggregation seam: a configured robust aggregator reduces the batch
	// in place of the optimizer's sum, leaving the queued gradient slices
	// untouched — the result aliases batch[0] or aggregator-owned scratch.
	if sh.agg != nil {
		batch = [][]tensor.Grad{float32Grads(sh.agg.combine(sh.tensors(batch)))}
	}
	sh.mu.Lock()
	var cloneStart time.Time
	if m != nil {
		cloneStart = time.Now()
	}
	cur := sh.gen
	next := sh.takeGen(m)
	if m != nil {
		m.cloneSeconds.Observe(time.Since(cloneStart).Seconds())
	}
	if stepHook != nil {
		stepHook(sh)
	}
	sh.opt.StepFrom(next.params, cur.params, batch)
	next.version = cur.version + total
	sh.gen = next
	sh.supersede(cur)
	sh.mu.Unlock()
	// Every push spans every shard, so this shard's applied counter walks
	// the same ticket sequence the store hands out (the checkpoint restore
	// path re-bases it); the batch covered tickets (to-total, to].
	to := sh.applied.Add(total)
	if m != nil {
		m.applyBatch.Observe(float64(total))
		m.applySeconds.Observe(time.Since(start).Seconds())
	}
	if tr != nil {
		tr.Applied(to-total, to, int(total), time.Now())
	}
}

// stepHook, when set, runs under the shard's write lock just before each
// optimizer step, given the shard; a variable so a test can hold an applier
// inside a step while pushes queue behind it.
var stepHook func(*shard)

// tensors views a batch of float32 sources as gradient tensors shaped like
// the shard's parameters, through headers reused across batches.
func (sh *shard) tensors(batch [][]tensor.Grad) [][]*tensor.Tensor {
	for len(sh.views) < len(batch) {
		views := make([]*tensor.Tensor, len(sh.gen.params))
		for i, p := range sh.gen.params {
			views[i] = tensor.New(p.Shape()...)
		}
		sh.views = append(sh.views, views)
	}
	for b, grads := range batch {
		for i, g := range grads {
			sh.views[b][i].Rebind(g.F32)
		}
	}
	return sh.views[:len(batch)]
}

// float32Grads returns ts as float32 gradient sources.
func float32Grads(ts []*tensor.Tensor) []tensor.Grad {
	grads := make([]tensor.Grad, len(ts))
	for i, t := range ts {
		grads[i].F32 = t.Data()
	}
	return grads
}

// supersede retires cur, just replaced as the published generation, into the
// reuse pool. Caller holds sh.mu.
func (sh *shard) supersede(cur *paramGen) {
	old, _ := sh.retired.retire(cur)
	sh.evict(old)
}

// evict lets go of gens, generations the shard will not publish again — one
// the retire pool evicted, or those a restore, an install or the serving
// server's stop drops: each region generation among them joins the evicted
// list, which frees its extent once no reader here holds it. Caller holds
// sh.mu.
func (sh *shard) evict(gens ...*paramGen) {
	for _, g := range gens {
		if g != nil && g.free != nil {
			sh.evicted = append(sh.evicted, g)
		}
	}
	sh.evicted = slices.DeleteFunc(sh.evicted, (*paramGen).freed)
}

// shardRange is the half-open interval of global tensor indices [Start, End)
// owned by one shard. Shards are contiguous, so a pull reply carries them in
// shard order and a group's data servers split the model by index ranges.
type shardRange struct {
	Start, End int
}

// defaultShards picks the shard count when the caller does not: one shard per
// available CPU, capped at the tensor count (a shard must own at least one
// tensor).
func defaultShards(tensors int) int {
	n := runtime.GOMAXPROCS(0)
	if n > tensors {
		n = tensors
	}
	if n < 1 {
		n = 1
	}
	return n
}

// partitionBySize splits tensors with the given element counts into n
// contiguous, size-balanced blocks. It greedily closes a block once it holds
// its proportional share of the remaining elements, while always leaving
// enough tensors for the remaining blocks; every block is non-empty and the
// blocks cover [0, len(sizes)) exactly. n must be in [1, len(sizes)].
func partitionBySize(sizes []int, n int) []shardRange {
	total := 0
	for _, s := range sizes {
		total += s
	}
	ranges := make([]shardRange, 0, n)
	start := 0
	remaining := total
	for b := 0; b < n; b++ {
		blocksLeft := n - b
		// This block must leave at least blocksLeft-1 tensors for its
		// successors.
		lastStart := len(sizes) - (blocksLeft - 1)
		end := start + 1
		acc := sizes[start]
		target := remaining / blocksLeft
		for end < lastStart && acc < target {
			acc += sizes[end]
			end++
		}
		if b == n-1 {
			end = len(sizes)
		}
		ranges = append(ranges, shardRange{Start: start, End: end})
		remaining -= acc
		start = end
	}
	return ranges
}
