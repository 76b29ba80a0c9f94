package transport

// The same-host payload lane: what a loopback connection does instead of
// pushing payload bytes through the kernel twice.
//
// A lane connection is a binaryConn over a unix stream socket with one shared
// arena per direction (lane_linux.go sets both up; nothing above Conn can tell).
// The sender of a frame whose body is at least laneMinBody gathers the body
// straight from where it lives into a free run of arena pages — that one copy
// replaces the socket's two — and only the 12-byte header crosses the socket,
// its two reserved bytes naming the run's first page (the slot). The receiver
// parses the mapped slot as the body, and the message's lease is the slot:
// Release stores zero into the slot's state word, which is all the sender
// needs to reuse the pages.
// Everything else — small frames, heartbeats, ordering, EOF — rides the
// socket exactly as on TCP, and a frame that finds no free slot goes inline
// on the socket too: the sender never waits on the arena.
//
// Arena layout, in lanePage units: pages [0, dataStart) hold one uint32 state
// word per page of the arena (0 free, 1 in flight; only the word of a slot's
// first page is used), pages [dataStart, pages) hold bodies. The sender alone
// allocates, lowest address first, so the pages ever touched are the frames
// in flight; the receiver alone frees. The receiver maps the whole arena; the
// sender maps the state words and writes bodies through the file (write), so
// a process holding both ends of a connection has every in-flight page
// resident once, and a write the kernel cannot back with memory is an error
// that sends the frame inline, not a fault.
//
// One exception, placed on request (PlaceBody): the resident push slot, a run
// of pages at the top of the arena that the allocator gives up for good, its
// memory allocated up front and mapped writable at the sender. The caller
// computes a push's tensors there — or, under a value codec, encodes their
// packed payloads there — and a Send whose slabs already sit at their body
// offsets in it writes only the bytes around them: the push crosses user
// space zero times. The receiver cannot tell — the slot is a
// slot, the header names it, Release frees it.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// lanePage is the arena's allocation unit, the slot marker's granularity.
	lanePage = 4 << 10
	// laneArenaBytes is one direction's arena: the most the 16-bit slot marker
	// can address, and maxFrameBody. It is address space, not memory — the
	// arena is an unlinked shared-memory file whose pages exist once touched.
	laneArenaBytes = 1 << 16 * lanePage
	// laneMinBody is the smallest body that travels through the arena: what
	// refSlabMin already calls too large to be worth copying twice.
	laneMinBody = refSlabMin
)

// laneOff keeps loopback dials from upgrading (SetLaneEnabled).
var laneOff atomic.Bool

// SetLaneEnabled switches the same-host payload lane on or off for every
// later Dial and returns a function restoring the previous setting. With the
// lane off a loopback dial stays on TCP, the carrier every cross-host
// connection uses. It exists so tests can cover both carriers from one
// machine; nothing outside tests calls it.
func SetLaneEnabled(on bool) (restore func()) {
	prev := laneOff.Swap(!on)
	return func() { laneOff.Store(prev) }
}

// laneSpan is one in-flight slot as its sender remembers it; hold is set on a
// reference slot (region.go), which is not free again until the hold has
// ended as well.
type laneSpan struct {
	page, pages int
	seq         uint64
	hold        *refHold
}

// arena is one direction's shared payload buffer, from one end's side.
type arena struct {
	// mem is what this end has mapped, from page 0: the whole arena at the
	// receiving end, at least the state words at the sending end. pages is
	// the arena's size.
	mem   []byte
	pages int
	// write puts a body, gathered from vec, at byte offset off (sending end).
	write func(off int, vec [][]byte) error
	// mapPages maps pages [page, page+n) writable at the sending end, their
	// memory allocated first so that no store into them can fault, and unmap
	// undoes it; nil where the arena cannot (a receiving end).
	mapPages func(page, n int) (mem []byte, unmap func(), err error)
	// free gives back mem and whatever write holds once the last holder is
	// gone; nil for an arena the garbage collector owns.
	free func()
	// holders counts who may still touch mem: the connection, the resident
	// push slot's mapping until its release and, at the receiving end, every
	// unreleased lease — a message outlives its connection and its peer.
	holders atomic.Int32

	// The sending end's allocator, guarded by the connection's encMu: the
	// slots it believes in flight, ascending, the allocation counter that
	// lets a failed batch take its own back, the end of the pages it hands
	// out (pages, or the push slot's first page once one is placed) and the
	// push slot.
	live  []laneSpan
	seq   uint64
	limit int
	push  *pushSlot
}

// pushSlot is the resident push slot as its sender holds it.
type pushSlot struct {
	page int
	// mem is the slot's pages as mapped at the sending end; unmap undoes that.
	mem   []byte
	unmap func()
	// seq is the allocation counter when it last went in flight, for abandon.
	seq uint64
}

// newArena returns one connection's view of an arena of pages pages.
func newArena(mem []byte, pages int, write func(int, [][]byte) error, free func()) *arena {
	a := &arena{mem: mem, pages: pages, write: write, free: free, limit: pages}
	a.holders.Store(1)
	return a
}

// laneDataStart is the first page of a pages-page arena that holds bodies,
// past the state words.
func laneDataStart(pages int) int { return (4*pages + lanePage - 1) / lanePage }

func (a *arena) dataStart() int { return laneDataStart(a.pages) }

// state is page's state word.
func (a *arena) state(page int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&a.mem[4*page]))
}

// drop ends one holder's use of the arena; the last one frees it.
func (a *arena) drop() {
	if a.holders.Add(-1) == 0 && a.free != nil {
		a.free()
	}
}

// alloc finds the lowest free run of pages with room for n bytes, marks it in
// flight and returns its first page; 0 means there is none.
func (a *arena) alloc(n int) (page int) {
	a.sweep()
	need := (n + lanePage - 1) / lanePage
	at, i := a.dataStart(), 0
	for ; i < len(a.live) && a.live[i].page-at < need; i++ {
		at = a.live[i].page + a.live[i].pages
	}
	if at+need > a.limit {
		return 0
	}
	a.seq++
	a.live = slices.Insert(a.live, i, laneSpan{page: at, pages: need, seq: a.seq})
	a.state(at).Store(1)
	return at
}

// sweep forgets the slots the receiver has released since the last look.
func (a *arena) sweep() {
	a.live = slices.DeleteFunc(a.live, func(s laneSpan) bool {
		return a.state(s.page).Load() == 0 && (s.hold == nil || s.hold.done.Load())
	})
}

// place maps a resident push slot with room for an n-byte body: the lowest
// run of pages that ends the arena, which the allocator never hands out
// again. It reports false when the sending end cannot map pages, one is
// placed already, or a frame still in flight occupies the run.
func (a *arena) place(n int) bool {
	if a.mapPages == nil || a.push != nil {
		return false
	}
	need := (n + lanePage - 1) / lanePage
	page := a.limit - need
	a.sweep()
	if last := len(a.live) - 1; page < a.dataStart() || last >= 0 && a.live[last].page+a.live[last].pages > page {
		return false
	}
	mem, unmap, err := a.mapPages(page, need)
	if err != nil {
		return false
	}
	a.limit = page
	a.push = &pushSlot{page: page, mem: mem, unmap: unmap}
	a.holders.Add(1)
	return true
}

// fill puts the body of the frame whose inline bytes run from buf[from:],
// with refs spliced in, into the push slot and marks the slot in flight —
// when the slot is free and every slab in refs already sits in it at its
// body offset, so that only the inline bytes move. Nothing is written unless
// all of that holds; it reports whether the frame went this way.
func (a *arena) fill(buf []byte, from int, refs []slabRef, bodyLen int) bool {
	p := a.push
	if p == nil || len(refs) == 0 || bodyLen > len(p.mem) || a.state(p.page).Load() != 0 {
		return false
	}
	off, at := 0, from
	for _, r := range refs {
		off += r.off - at
		if off+len(r.data) > len(p.mem) || unsafe.SliceData(r.data) != &p.mem[off] {
			return false
		}
		off, at = off+len(r.data), r.off
	}
	off, at = 0, from
	for _, r := range refs {
		off += copy(p.mem[off:], buf[at:r.off]) + len(r.data)
		at = r.off
	}
	copy(p.mem[off:], buf[at:])
	a.seq++
	p.seq = a.seq
	a.state(p.page).Store(1)
	return true
}

// mark reads the allocation counter, for abandon; both are no-ops on a
// connection with no lane (a nil arena).
func (a *arena) mark() uint64 {
	if a == nil {
		return 0
	}
	return a.seq
}

// abandon frees the slots allocated since mark: frames that were assembled
// but will never be announced on the socket.
func (a *arena) abandon(mark uint64) {
	if a == nil {
		return
	}
	for _, s := range a.live {
		if s.seq > mark {
			a.state(s.page).Store(0)
			if s.hold != nil {
				s.hold.end()
			}
		}
	}
	if p := a.push; p != nil && p.seq > mark {
		a.state(p.page).Store(0)
	}
}

// slot validates a received slot marker against the arena and returns the
// body it names. Whatever the header says, the result lies inside the data
// pages or is an error.
func (a *arena) slot(page, n int) ([]byte, error) {
	if page < a.dataStart() || page >= a.pages || n < 1 || n > (a.pages-page)*lanePage {
		return nil, fmt.Errorf("transport: lane slot %d with a %d-byte body lies outside the %d-page arena", page, n, a.pages)
	}
	if a.state(page).Load() == 0 {
		return nil, fmt.Errorf("transport: lane slot %d is not in flight", page)
	}
	off := page * lanePage
	return a.mem[off : off+n : off+n], nil
}

// divert moves the body of the frame m just assembled at buf[start:] — its
// inline bytes and the slabs c.refs recorded from refCount on — out of the
// socket's way. A Weights reply whose tensors, dense or packed, all lie in the
// region this connection offered its peer becomes a reference frame
// (reference).
// Otherwise the body goes into a free slot of the outbound arena, leaving the
// header alone for the socket with the slot in its reserved bytes: a frame
// whose slabs already sit in the free push slot goes there, only its inline
// bytes copied; any other takes the lowest free run of pages, written with
// one gathered copy. A frame under laneMinBody, a connection with no lane, an
// arena with no room and a write that fails leave buf as it is: the frame
// goes inline. Caller holds encMu.
func (c *binaryConn) divert(buf []byte, start, refCount int, m *Message) []byte {
	a := c.laneOut
	if a == nil {
		return buf
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[start+8:]))
	if bodyLen < laneMinBody {
		return buf
	}
	if out, ok := c.reference(buf, start, refCount, bodyLen, m); ok {
		return out
	}
	if a.fill(buf, start+headerSize, c.refs.list[refCount:], bodyLen) {
		c.refs.truncate(refCount)
		binary.LittleEndian.PutUint16(buf[start+6:], uint16(a.push.page))
		c.meter.laneSentFrame(true)
		return buf[:start+headerSize]
	}
	page := a.alloc(bodyLen)
	if page == 0 {
		c.meter.laneInlined()
		return buf
	}
	vec := gather(c.vec[:0], buf, start+headerSize, c.refs.list[refCount:])
	err := a.write(page*lanePage, vec)
	clear(vec)
	c.vec = vec[:0]
	if err != nil {
		a.state(page).Store(0)
		c.meter.laneInlined()
		return buf
	}
	c.refs.truncate(refCount)
	binary.LittleEndian.PutUint16(buf[start+6:], uint16(page))
	c.meter.laneSentFrame(false)
	return buf[:start+headerSize]
}

// reference replaces the frame m just assembled at buf[start:], whose body is
// bodyLen bytes, with the reference frame standing for it, when m is a
// Weights reply whose every tensor — dense values or packed payload — lies in
// a span of the region this connection offered (an owner's extent, or a lease
// of the connection the region was passed through from): one page of the
// outbound arena becomes the reference slot, a hold on those spans keeps them
// from being rewritten or released until the receiver releases the slot, and
// only the tensor headers and offsets go on the socket. Caller holds encMu.
func (c *binaryConn) reference(buf []byte, start, refCount, bodyLen int, m *Message) ([]byte, bool) {
	o := c.regionOut
	if o == nil || m.Type != MsgWeights || (len(m.Tensors) == 0) == (len(m.Packed) == 0) {
		return nil, false
	}
	ranges := c.ranges[:0]
	for _, t := range m.Tensors {
		off, ok := o.reg.offset(float32Bytes(t.Data))
		if !ok {
			return nil, false
		}
		ranges = append(ranges, off, 4*len(t.Data))
	}
	for _, p := range m.Packed {
		off, ok := o.reg.offset(p.Payload)
		if !ok {
			return nil, false
		}
		ranges = append(ranges, off, len(p.Payload))
	}
	c.ranges = ranges
	r, a := o.reg, c.laneOut
	r.mu.Lock()
	r.pollLocked()
	page := a.alloc(1)
	var h *refHold
	if page != 0 {
		if h = r.holdLocked(a, page, ranges, o.src); h == nil {
			a.state(page).Store(0)
		}
	}
	r.mu.Unlock()
	if h == nil {
		return nil, false
	}
	for i := range a.live {
		if a.live[i].page == page {
			a.live[i].hold = h
		}
	}
	out, err := appendRefFrame(buf[:start], m, page, bodyLen, ranges)
	if err != nil {
		a.state(page).Store(0)
		h.end()
		return nil, false
	}
	c.refs.truncate(refCount)
	c.meter.laneSentFrame(false)
	return out, true
}

// referenceLease is the lease of a reference frame's message: the reference
// slot ref names in the inbound arena, validated like a body slot, and the
// region range its tensors span, registered so that a relay passing them on
// keeps the lease until its own receivers let go. The frame is metered at
// the logical size it stands for.
func (fr *frameReader) referenceLease(ref refSection) (*bodyLease, error) {
	a := fr.arena
	if a == nil || ref.slot < a.dataStart() || ref.slot >= a.pages {
		return nil, fmt.Errorf("transport: reference slot %d lies outside the arena's data pages", ref.slot)
	}
	if a.state(ref.slot).Load() == 0 {
		return nil, fmt.Errorf("transport: reference slot %d is not in flight", ref.slot)
	}
	fr.lastBody, fr.lastSize = bodyRef, headerSize+ref.logical
	l := slotLease(a, ref.slot, nil)
	l.reg = fr.region
	fr.region.leased(l, ref.off, ref.end, fr)
	return l, nil
}

// slotLease is the lease of page of the inbound arena a, which body (nil for
// a reference slot) lies in: a counts it as a holder until it ends. Release
// stays optional: a message dropped unreleased gives its slot back when it
// is collected, as a heap body gives back its memory.
func slotLease(a *arena, page int, body []byte) *bodyLease {
	a.holders.Add(1)
	l := &bodyLease{buf: body, arena: a, page: page}
	runtime.SetFinalizer(l, func(l *bodyLease) {
		if !l.done.Swap(true) {
			l.giveBack()
		}
	})
	return l
}

// PlaceBody implements BodyPlacer: m is encoded once, every slab taken by
// reference, to learn where each lands in the body, and the push slot is
// placed with room for that body.
func (c *binaryConn) PlaceBody(m Message) (views [][]byte, release func(), ok bool) {
	if (len(m.Tensors) == 0) == (len(m.Packed) == 0) || !hostLittleEndian {
		return nil, nil, false
	}
	refs := frameRefs{min: 1}
	buf, err := appendFrameRefs(nil, &m, &refs)
	if err != nil || len(buf)+refs.bytes-headerSize < laneMinBody {
		return nil, nil, false
	}
	c.encMu.Lock()
	a := c.laneOut
	var p *pushSlot
	if a != nil && a.place(len(buf)+refs.bytes-headerSize) {
		p = a.push
	}
	c.encMu.Unlock()
	if p == nil {
		return nil, nil, false
	}
	views = make([][]byte, len(refs.list))
	off, at := 0, headerSize
	for i, r := range refs.list {
		off += r.off - at
		views[i] = p.mem[off : off+len(r.data) : off+len(r.data)]
		off, at = off+len(r.data), r.off
	}
	release = sync.OnceFunc(func() {
		c.encMu.Lock()
		a.push = nil // the pages stay above limit: a frame sent from them may still be leased
		c.encMu.Unlock()
		p.unmap()
		a.drop()
	})
	return views, release, true
}

// SlotFree implements BodyPlacer.
func (c *binaryConn) SlotFree() bool {
	c.encMu.Lock()
	defer c.encMu.Unlock()
	a := c.laneOut
	return a != nil && a.push != nil && a.state(a.push.page).Load() == 0
}

// readSlot decodes the frame whose header named slot page of the inbound
// arena: parseBody runs over the mapped slot and the message's lease is the
// slot itself.
func (fr *frameReader) readSlot(typ byte, page, bodyLen int) (Message, error) {
	body, err := fr.arena.slot(page, bodyLen)
	if err != nil {
		return Message{}, err
	}
	fr.lastBody = bodyLane
	return adopt(typ, body, slotLease(fr.arena, page, body), fr)
}

// lanePeer is the process at the other end of a connection that offered it a
// region, as the references the connection sent it need to know it: they
// outlive the connection until the peer releases them or exits (closeLane).
// fd is its pidfd; refs counts the connection and every hold it left behind.
type lanePeer struct {
	fd   int
	refs atomic.Int32
}

// closeLane ends the connection's own hold on its arenas and regions. The
// holds of the references it sent outlive it: the receiver reads them through
// its own mapping, which the connection closing does not take away, so they
// end when it releases them or its process exits (region.orphan) — a crashed
// reader pins nothing, and one that lives on keeps reading the generation it
// was sent. The socket is already closed, so a Send or Recv still inside one
// leaves promptly and the locks are free to take.
func (c *binaryConn) closeLane() {
	c.encMu.Lock()
	out, offer, peer := c.laneOut, c.regionOut, c.peer
	c.laneOut, c.regionOut, c.peer = nil, nil, nil
	if out != nil {
		for _, s := range out.live {
			if s.hold != nil {
				s.hold.orphan(peer)
			}
		}
	}
	c.encMu.Unlock()
	peer.drop()
	c.decMu.Lock()
	in, reg := c.fr.arena, c.fr.region
	c.fr.arena, c.fr.region = nil, nil
	c.decMu.Unlock()
	if out != nil {
		out.drop()
	}
	if in != nil {
		in.drop()
	}
	if offer != nil {
		offer.reg.drop()
	}
	if reg != nil {
		reg.drop()
	}
}
