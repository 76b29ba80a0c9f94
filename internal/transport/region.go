package transport

// The generation region: where a same-host pull reply's weights already are,
// so that the reply names them instead of carrying them.
//
// A server's store publishes every generation of its parameters once and
// never writes it again while a reader holds it (internal/ps, paramgen.go).
// When the server's listener offers a region (RegionHost), the store carves
// its generations out of it: one sealed shared-memory file per server, mapped
// writable there and read-only by every same-host peer it hands the
// descriptor to in the lane hello (lane_linux.go). A Weights reply whose
// tensors all lie in the region the peer has mapped then leaves as a
// reference frame: the tensor headers and each tensor's offset in the region,
// no data (wire.go, tagTensorRefs) — or, for the packed form of a pull codec,
// which the store caches there too, the packed headers and each payload's
// offset (tagPackedRefs). The receiver's tensors are views of its read-only
// mapping, so a stray store into them faults instead of corrupting the
// server's weights.
//
// The lease is the lane's own: a reference takes one page of the sender's
// outbound arena as its reference slot, whose state word is 1 until the
// receiver's Release stores 0 into it (lane.go). The sender records the
// reference as a hold on the span its tensors lie in — an owner's extent (one
// generation) or, at a relay, the lease of the upstream message it is passing
// through — and the span is not given back while a hold on it is out: an
// extent is not rewritten (reclaim) and an upstream lease is not released.
// Holds end when their word reads 0, which whoever next looks at the region
// notices (poll). A connection that closes leaves its holds behind (orphan):
// the receiver still reads them through its own mapping, so each ends when
// the receiver releases it or its process exits, which the region watches for
// while such holds are out. A reader that died pins nothing; one that lives
// on past its connection reads the generation it was sent, not a rewritten
// one.

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

const (
	// regionBytes is the size of a server's generation region: address
	// space, not memory — only the extents its generations occupy are
	// allocated, and a freed extent gives its pages back.
	regionBytes = 1 << 30
	// regionMinBytes is the smallest region a receiver accepts.
	regionMinBytes = lanePage
	// orphanPoll is how often a region looks at the holds whose connections
	// have closed, for as long as one is out: nothing else may look again —
	// the server whose applier polls may have stopped.
	orphanPoll = 10 * time.Millisecond
)

// RegionHost is an optional Listener extension, in the mould of BodyPlacer:
// a listener whose same-host connections can offer their peers a generation
// region. Serving code calls ShareRegion once, before it accepts; a
// connection accepted before that offers none.
type RegionHost interface {
	// ShareRegion makes every later same-host connection the listener
	// accepts offer its peer one region. With via nil the region is a new
	// one this process owns, and alloc carves it: alloc(n) returns n float32
	// values of it, writable here, with reclaim — true once no reference into
	// them is out, after which the caller may rewrite them (the release hook,
	// SetReleaseHook, sees them then if a reference read them) — and free,
	// which gives them back once
	// no reference is out; mem is nil when the region has no room or the
	// kernel cannot allocate it. With via set the region is the one via's peer
	// offered, passed through by a relay whose children read what it read
	// from its parent (alloc is nil). alloc is nil, and nothing is offered,
	// where there is no lane or no region to offer.
	ShareRegion(via Conn) (alloc func(n int) (mem []float32, reclaim func() bool, free func()))
}

// region is one generation region as this process sees it.
type region struct {
	// mem is this process's mapping: writable at the owner, read-only at a
	// process that received the descriptor.
	mem []byte
	// fd is the shared-memory file, kept to hand to peers; owner marks the
	// process that created it and alone allocates in it; key is what a
	// received region is registered under (receivedRegions).
	fd    int
	owner bool
	key   regionKey
	// holders counts who may still touch mem: at the owner every live
	// extent, the listener sharing it and every connection offering it;
	// elsewhere every connection that mapped or offers it and every
	// reference lease. unmap runs when the last is gone.
	holders atomic.Int32
	unmap   func()
	// allocate gives [off, off+n) memory before the owner's first store into
	// it, so that no store can fault; punch gives it back.
	allocate func(off, n int) error
	punch    func(off, n int)

	// mu guards spans, holds and every span's and hold's fields.
	mu sync.Mutex
	// spans are the ranges references may point into: the owner's extents,
	// ascending, or a receiver's reference leases.
	spans []*regionSpan
	// holds are the references sent from this process into spans whose
	// release nobody has seen yet; watching is set while a timer polls them
	// for the orphans among them (orphan).
	holds    []*refHold
	watching bool
}

// regionKey identifies a shared-memory file: its device and inode.
type regionKey struct{ dev, ino uint64 }

// regionSpan is one range of a region that references pin.
type regionSpan struct {
	off, end int
	// src is the reader of the connection a received lease arrived on; nil
	// for an owner's extent.
	src *frameReader
	// lease is the reference lease a received span stands for.
	lease *bodyLease
	// holds counts the references out into the span; gone marks a span whose
	// owner let go of it (an extent freed, a lease released) while holds
	// were out: the last hold's end retires it. referenced marks an extent a
	// reference has read since it was last reclaimed, which the release hook
	// sees when it is.
	holds      int
	gone       bool
	referenced bool
}

// refHold is one reference frame in flight: the sender's reference slot —
// whose arena it holds, to read the state word — and the spans it pins. peer
// is set once the connection that sent it has closed: the hold then also ends
// when that process exits. Guarded by reg.mu.
type refHold struct {
	reg   *region
	a     *arena
	page  int
	spans []*regionSpan
	peer  *lanePeer
	done  atomic.Bool
}

// regionOffer is what a listener offers its connections: a region, and for
// one passed through (via), the reader whose leases references into it pin.
type regionOffer struct {
	reg *region
	src *frameReader
}

// drop ends one holder's use of the region; the last one unmaps it.
func (r *region) drop() {
	if r.owner {
		if r.holders.Add(-1) == 0 && r.unmap != nil {
			r.unmap()
		}
		return
	}
	receivedRegions.Lock()
	if r.holders.Add(-1) == 0 {
		delete(receivedRegions.m, r.key)
		if r.unmap != nil {
			r.unmap()
		}
	}
	receivedRegions.Unlock()
}

// receivedRegions maps every region this process holds a received
// descriptor of, once per process whatever the number of connections: a
// process holding a server's workers maps its region once.
var receivedRegions struct {
	sync.Mutex
	m map[regionKey]*region
}

// alloc is an owner region's RegionHost allocator: the lowest free run of
// pages with room for n values, given memory before it is handed out.
func (r *region) alloc(n int) (mem []float32, reclaim func() bool, free func()) {
	need := (4*n + lanePage - 1) / lanePage * lanePage
	if n < 1 || need > len(r.mem) {
		return nil, nil, nil
	}
	r.mu.Lock()
	at, i := 0, 0
	for ; i < len(r.spans) && r.spans[i].off-at < need; i++ {
		at = r.spans[i].end
	}
	if at+need > len(r.mem) {
		r.mu.Unlock()
		return nil, nil, nil
	}
	s := &regionSpan{off: at, end: at + need}
	r.spans = slices.Insert(r.spans, i, s)
	r.mu.Unlock()
	if r.allocate != nil && r.allocate(at, need) != nil {
		r.mu.Lock()
		r.spans = slices.DeleteFunc(r.spans, func(x *regionSpan) bool { return x == s })
		r.mu.Unlock()
		return nil, nil, nil
	}
	r.holders.Add(1)
	mem = bytesFloat32(r.mem[at:at+4*n], n)
	reclaim = func() bool {
		r.mu.Lock()
		r.pollLocked()
		idle, read := s.holds == 0, s.referenced
		if idle {
			s.referenced = false
		}
		r.mu.Unlock()
		if idle && read {
			if h := releaseHook.Load(); h != nil && *h != nil {
				(*h)(r.mem[s.off:s.end])
			}
		}
		return idle
	}
	free = func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if !s.gone {
			s.gone = true
			if s.holds == 0 {
				r.retireLocked(s)
			}
		}
	}
	return mem, reclaim, free
}

// offset returns where data lies in the region, or false when it does not.
func (r *region) offset(data []byte) (int, bool) {
	if len(data) == 0 || len(r.mem) == 0 {
		return 0, false
	}
	base := uintptr(unsafe.Pointer(&r.mem[0]))
	p := uintptr(unsafe.Pointer(&data[0]))
	if p < base || p-base > uintptr(len(r.mem)) || uintptr(len(r.mem))-(p-base) < uintptr(len(data)) {
		return 0, false
	}
	return int(p - base), true
}

// spanLocked returns the live span from src that holds [off, end), or nil.
func (r *region) spanLocked(off, end int, src *frameReader) *regionSpan {
	for _, s := range r.spans {
		if s.src == src && !s.gone && s.off <= off && end <= s.end {
			return s
		}
	}
	return nil
}

// hold records a reference from slot page of a to the spans holding ranges
// (offset, byte length pairs), offered from src; false, recording nothing,
// when one of them lies in no span a reference may pin. Caller holds r.mu.
func (r *region) holdLocked(a *arena, page int, ranges []int, src *frameReader) *refHold {
	h := &refHold{reg: r, a: a, page: page}
	for i := 0; i < len(ranges); i += 2 {
		s := r.spanLocked(ranges[i], ranges[i]+ranges[i+1], src)
		if s == nil {
			return nil
		}
		if !slices.Contains(h.spans, s) {
			h.spans = append(h.spans, s)
		}
	}
	for _, s := range h.spans {
		s.holds++
		s.referenced = true
	}
	// The hold reads the slot's state word until it ends, however long after
	// its connection closes.
	a.holders.Add(1)
	r.holds = append(r.holds, h)
	return h
}

// pollLocked ends every hold whose receiver has released its reference, or
// whose connection has closed and whose receiver's process has exited.
func (r *region) pollLocked() {
	for _, h := range r.holds {
		if !h.done.Load() && (h.a.state(h.page).Load() == 0 || h.peer != nil && h.peer.exited()) {
			r.endLocked(h)
		}
	}
	r.holds = slices.DeleteFunc(r.holds, func(h *refHold) bool { return h.done.Load() })
}

// endLocked ends h's pins, retiring what waited on them: the hold was
// released, its receiver exited, or its frame was abandoned unsent.
func (r *region) endLocked(h *refHold) {
	if h.done.Swap(true) {
		return
	}
	for _, s := range h.spans {
		if s.holds--; s.holds == 0 && s.gone {
			r.retireLocked(s)
		}
	}
	h.a.drop()
	h.peer.drop()
}

// orphan hands h, whose connection has just closed, to the region's watch:
// from now on it also ends when peer — the process it was sent to — exits,
// and the region polls for both itself, since whoever polled it through the
// connection may not again.
func (h *refHold) orphan(peer *lanePeer) {
	r := h.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if h.done.Load() {
		return
	}
	peer.refs.Add(1)
	h.peer = peer
	r.watchLocked()
}

// watchLocked polls the region every orphanPoll for as long as an orphaned
// hold is out.
func (r *region) watchLocked() {
	if r.watching {
		return
	}
	r.watching = true
	time.AfterFunc(orphanPoll, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.watching = false
		r.pollLocked()
		if slices.ContainsFunc(r.holds, func(h *refHold) bool { return h.peer != nil }) {
			r.watchLocked()
		}
	})
}

// end is endLocked for callers that do not hold r.mu.
func (h *refHold) end() {
	h.reg.mu.Lock()
	h.reg.endLocked(h)
	h.reg.mu.Unlock()
}

// retireLocked removes a span nothing pins or owns any more: an extent's
// pages go back to the kernel, a lease goes back to its sender.
func (r *region) retireLocked(s *regionSpan) {
	r.spans = slices.DeleteFunc(r.spans, func(x *regionSpan) bool { return x == s })
	if l := s.lease; l != nil {
		l.arena.state(l.page).Store(0)
		l.arena.drop()
	} else if r.punch != nil {
		r.punch(s.off, s.end-s.off)
	}
	r.drop()
}

// leased registers a reference lease received on fr over [off, end) of the
// region, which references this process passes on may pin.
func (r *region) leased(l *bodyLease, off, end int, fr *frameReader) {
	r.holders.Add(1)
	s := &regionSpan{off: off, end: end, src: fr, lease: l}
	l.span = s
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// release gives a reference lease back to its sender, or — while references
// this process passed on still pin it — as soon as the last of them is
// released.
func (r *region) release(s *regionSpan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pollLocked()
	s.gone = true
	if s.holds == 0 {
		r.retireLocked(s)
	}
}
