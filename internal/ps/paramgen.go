package ps

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

// paramGen is one published generation of a shard's parameters: the tensor
// buffers one copy-on-write publication wrote, plus the bookkeeping that
// decides when those buffers may be written again.
//
// The applier would otherwise allocate a full parameter copy per batch just
// to honor publication immutability. Refcounting makes the steady state
// double-buffered instead: once every reader of a retired generation has
// released it, the applier reuses its buffers as the destination of the next
// fused optimizer step, and apply allocates nothing.
//
// Every reader (the pull path, the compressed-pack fill, snapshots and
// checkpoints) holds a reference for the duration of the read: acquire under
// the shard's read lock, release when the data has been copied, packed, or
// sent — transport.Conn's Send is done with what a message aliases when it
// returns, on every carrier, so no reader keeps a generation for good and
// refs reaches zero again.
//
// Memory-model argument for reuse safety: a reference is only ever taken
// while the generation is the shard's current one, under sh.mu.RLock. The
// applier retires a generation under sh.mu.Lock, which orders it after every
// in-flight acquisition; from then on no new reference can appear. Seeing
// refs == 0 on a retired generation therefore proves all reads of its buffers
// happened before (the release's atomic decrement synchronizes with the
// applier's load), and overwriting them cannot race any reader.
type paramGen struct {
	params []*tensor.Tensor
	genPin
}

// genPin is the reader bookkeeping of one recyclable generation of buffers —
// a paramGen's tensors or a packedGen's payloads: readers count themselves in
// refs, and the owner rewrites the buffers only once the generation is
// retired and quiescent.
type genPin struct {
	// version is the applied version the generation holds: every push up to
	// it is in these buffers. It is set before the generation is published
	// and not changed while it is, so a reader reads it under its pin.
	version int64
	refs    atomic.Int64
	// reclaim and free are set on a generation whose buffers lie in the
	// server's shared generation region (transport.RegionHost), where a
	// same-host pull reply references them instead of copying them: refs
	// counts a reply only until its Send returns, and reclaim reports whether
	// every reference sent has been released since (by its receiver, or by
	// the receiver's process exiting). free gives the extent back. A heap
	// generation has neither.
	reclaim func() bool
	free    func()
}

// release drops one reader's reference. It must be called exactly once
// per acquisition, after the last read of the generation's buffers; on a nil
// pin (a message that pins nothing) it is a no-op.
func (p *genPin) release() {
	if p != nil {
		p.refs.Add(-1)
	}
}

// quiescent reports that no reader holds the generation or ever will, given
// that it is retired (no longer handed out): no reader in this process, and
// no reference out to another. A region generation found quiescent is the
// caller's to rewrite at once (transport.RegionHost's reclaim).
func (p *genPin) quiescent() bool {
	return p.refs.Load() == 0 && (p.reclaim == nil || p.reclaim())
}

// freed frees the region extent of a generation its owner let go of, once no
// reader in this process holds it, and reports whether it did; the extent
// itself goes back when the last reference into it is released too.
func (p *genPin) freed() bool {
	if p.refs.Load() != 0 {
		return false
	}
	p.free()
	return true
}

// release drops one reference taken by shard.acquire (or
// Store.acquireShard); releasing a nil generation is a no-op.
func (g *paramGen) release() {
	if g != nil {
		g.genPin.release()
	}
}

// packedGen is one generation of a shard's compressed-pull cache: the packed
// form of the parameter generation at its version, in payload buffers that
// the next fill rewrites once every pull reply carrying them has been sent —
// and, where the payloads lie in the server's generation region as a
// paramGen's tensors do, once every reference to them has been released. The reuse argument is
// paramGen's with packedMu in the place of sh.mu: a pin is only taken while
// the generation is the shard's current one, under packedMu; the fill that
// supersedes it retires it under the same lock; so a retired generation that
// is quiescent has no reader left.
type packedGen struct {
	packed []compress.Packed
	genPin
}

// acquire returns the shard's current generation with a reference held; the
// caller must release it.
func (sh *shard) acquire() *paramGen {
	sh.mu.RLock()
	g := sh.gen
	g.refs.Add(1)
	sh.mu.RUnlock()
	return g
}

// retiredGens bounds a reuse pool. A generation is held by the pulls that
// grabbed it until their replies are sent and, where a same-host reply
// references it instead of carrying it, by every worker that pulled it
// until that worker's next pull — and a relay's by its children's. With
// generation n current and one worker lapping another, n-1 and n-2 may
// still be held; n-3 is the one whose readers have drained, the reuse
// candidate, and one more is slack for a relay's children. Anything older is
// pinned by an unusually slow reader; dropping it (shard.evicted) costs one
// allocation later but keeps the pool scan O(1).
const retiredGens = 4

// retirePool is the owner-side pool of superseded generations awaiting reuse:
// the paramGens a shard's applier published (under sh.mu) and the packedGens
// of its compressed-pull cache (under packedMu).
type retirePool[G interface{ quiescent() bool }] []G

// take removes and returns a retired generation whose buffers are provably
// quiescent; ok is false when none is.
func (p *retirePool[G]) take() (g G, ok bool) {
	for i, g := range *p {
		if g.quiescent() {
			*p = append((*p)[:i], (*p)[i+1:]...)
			return g, true
		}
	}
	return g, false
}

// retire adds a generation that was just superseded and returns the oldest
// entry beyond the cap, which it evicts.
func (p *retirePool[G]) retire(g G) (evicted G, ok bool) {
	*p = append(*p, g)
	if len(*p) > retiredGens {
		evicted, ok = (*p)[0], true
		*p = append((*p)[:0], (*p)[1:]...)
	}
	return evicted, ok
}

// takeGen returns the destination generation for the next publication:
// a retired generation whose buffers are provably quiescent when one exists,
// otherwise fresh buffers shaped like the current parameters — one extent of
// the server's generation region when it has one with room, the heap
// otherwise (counted: a pull of a heap generation is copied). Only the
// shard's applier calls it (single goroutine), under sh.mu.
func (sh *shard) takeGen(m *storeMetrics) *paramGen {
	alloc := sh.region.Load()
	for {
		g, ok := sh.retired.take()
		if !ok {
			break
		}
		if alloc != nil && g.free == nil {
			// A heap generation — the store's first, or one the region had
			// no room for — makes way for one whose pulls are references.
			continue
		}
		if m != nil {
			m.cloneReuse.Inc()
		}
		return g
	}
	if m != nil {
		m.cloneAlloc.Inc()
	}
	if g := sh.regionGen(alloc); g != nil {
		return g
	}
	if m != nil {
		m.cloneHeap.Inc()
	}
	return sh.heapGen()
}

// heapGen allocates a generation shaped like the current one on the heap.
func (sh *shard) heapGen() *paramGen {
	g := &paramGen{params: make([]*tensor.Tensor, len(sh.gen.params))}
	for i, p := range sh.gen.params {
		g.params[i] = tensor.New(p.Shape()...)
	}
	return g
}

// regionGen allocates a generation shaped like the current one in the region
// alloc carves, or returns nil when there is none or it has no room. Caller
// holds sh.mu.
func (sh *shard) regionGen(alloc *regionAlloc) *paramGen {
	if alloc == nil {
		return nil
	}
	n := 0
	for _, p := range sh.gen.params {
		n += p.Size()
	}
	mem, reclaim, free := (*alloc)(n)
	if mem == nil {
		return nil
	}
	g := &paramGen{params: make([]*tensor.Tensor, len(sh.gen.params))}
	g.reclaim, g.free = reclaim, sync.OnceFunc(free)
	for i, p := range sh.gen.params {
		g.params[i] = tensor.FromSliceOwned(mem[:p.Size():p.Size()], p.Shape()...)
		mem = mem[p.Size():]
	}
	return g
}

// regionPacked moves the payloads of g, a packed generation just filled on
// the heap, into one extent of the region alloc carves, so that a same-host
// pull reply references them; g stays on the heap when there is no region or
// it has no room. Later fills recycle the extent in place.
func regionPacked(g *packedGen, alloc *regionAlloc) {
	if alloc == nil {
		return
	}
	n := 0
	for _, p := range g.packed {
		n += len(p.Payload)
	}
	mem, reclaim, free := (*alloc)((n + 3) / 4)
	if mem == nil {
		return
	}
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(mem))), 4*len(mem))
	for i, p := range g.packed {
		size := len(p.Payload)
		g.packed[i].Payload = buf[:size:size]
		copy(buf, p.Payload)
		buf = buf[size:]
	}
	g.reclaim, g.free = reclaim, sync.OnceFunc(free)
}

// acquireShard returns shard i's currently published parameter tensors
// without copying, in the generation that holds them (its version is the
// applied version they hold). The tensors are the store's copy-on-write
// snapshot: never mutated after publication, and the CALLER MUST NOT mutate
// them either.
//
// The tensors are valid until release (paramGen.release) is called on the
// returned generation — exactly once, after the caller is completely done
// with params; for a wire path, after the Send of the message carrying them
// has returned. Until then the applier keeps the generation's buffers out of
// its reuse pool; afterwards steady-state pulls and applies recycle buffers
// instead of allocating. Releasing nil is a no-op.
func (s *Store) acquireShard(i int) (params []*tensor.Tensor, gen *paramGen) {
	g := s.shards[i].acquire()
	return g.params, g
}
