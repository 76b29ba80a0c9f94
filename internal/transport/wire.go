package transport

// The binary wire protocol spoken on every connection: over a TCP
// socket, over the same-host lane, and — the same frames, handed through a
// channel — in process (channel.go).
//
// Every message travels as one frame: a fixed 12-byte little-endian header
// (magic, protocol version, message type, body length) followed by a body of
// tagged fields. Tensor payloads are written as raw float32 slabs, 4-byte
// aligned relative to the body start, so encoding is a header write plus
// copy and the decoder can alias the read buffer instead of allocating and
// converting per value — the properties gob fundamentally cannot offer (it
// re-encodes every float through reflection and a varint, costing ~6 bytes
// and several allocations per float32).
//
// docs/PROTOCOL.md is the normative byte-level specification of everything
// in this file; keep the two in sync.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"dssp/internal/compress"
)

// Frame header constants. The header is 12 bytes:
//
//	offset size field
//	0      4    magic "DSSP"
//	4      1    protocol version (wireVersion)
//	5      1    message type
//	6      2    reserved, must be zero
//	8      4    body length, uint32 little endian
const (
	wireMagic = "DSSP"
	// wireVersion is the one protocol version this build speaks: every
	// frame is stamped with it and a frame stamped with any other is
	// refused. Every binary that speaks the wire is built from one tree, so
	// there is no older peer to stay compatible with; 5 is above every
	// version an older build stamped (1-4), so such a build is refused on
	// its first frame rather than halfway through a conversation.
	wireVersion = 5
	headerSize  = 12

	// maxFrameBody caps the declared body length. It bounds what a decoder
	// will ever read for one message (and, combined with chunked reads,
	// what it allocates) against corrupt or hostile length fields.
	maxFrameBody = 1 << 28

	// bodyReadChunk is the allocation step while reading a body into a fresh
	// buffer: a body of up to two chunks is allocated whole, a larger one
	// grows as bytes actually arrive, so a forged multi-megabyte length
	// header costs at most two chunks of memory, not the declared size.
	bodyReadChunk = 1 << 20

	// smallBodyMax is the largest body decoded into the connection's
	// reusable scratch buffer. Control messages (Register, OK, Pull,
	// Heartbeat, ...) all fit, making the steady-state protocol chatter
	// allocation-free; payload messages get a buffer of their own, leased
	// from the connection's free list, that their tensors may alias until
	// Message.Release hands it back.
	smallBodyMax = 4 << 10

	// maxFreeBodyBytes and maxFreeBodies cap what a connection's free list of
	// released body buffers retains (summed capacity, and entries — the list
	// is scanned linearly). The steady state needs one or two buffers of the
	// connection's payload frame size; a frame larger than the cap is simply
	// allocated and dropped again, as before leasing.
	maxFreeBodyBytes = 8 << 20
	maxFreeBodies    = 8

	// maxTensorDims bounds the rank of a wire tensor. The models top out at
	// 4 (conv weights); 8 leaves headroom without letting a corrupt rank
	// byte drive shape allocation.
	maxTensorDims = 8
)

// Body field tags, ascending. A field whose value is the Go zero value is
// omitted; present fields must appear in strictly ascending tag order, at
// most once each.
const (
	tagWorker    = 0x01 // uint32 (two's-complement int32)
	tagIteration = 0x02 // uint32 (two's-complement int32)
	tagVersion   = 0x03 // uint64 (two's-complement int64)
	// Tags 0x04, 0x05 and 0x06 carried a chunked pull reply's shard index,
	// shard count and first tensor index: they decode as unknown and are never
	// reused.
	tagTotal       = 0x07 // uint32 (two's-complement int32)
	tagStoreShards = 0x08 // uint32 (two's-complement int32)
	tagCodec       = 0x09 // uint8 length + bytes
	tagCodecTopK   = 0x0A // uint64 (IEEE 754 float64 bits)
	tagCodecPull   = 0x0B // uint8, must be 1
	tagError       = 0x0C // uint32 length + bytes
	tagTensors     = 0x0D // tensor section
	tagPacked      = 0x0E // packed section

	// Tags 0x0F, 0x10 and 0x12 carried the retired per-shard delta pull:
	// they decode as unknown and are never reused.
	tagUnchanged = 0x11 // uint8, must be 1

	// Server groups.
	tagServers    = 0x13 // uint32 count + count × (uint16 addr len + bytes + 4 × uint32)
	tagMapVersion = 0x14 // uint64 (two's-complement int64)
	tagReplica    = 0x15 // uint8, must be 1
	tagCluster    = 0x16 // uint8, must be 1

	// Aggregation trees.
	tagRelay       = 0x17 // uint8, must be 1
	tagPushEntries = 0x18 // uint32 count + count × (uint32 worker + uint64 version + uint32 iteration)

	// The reference section (region.go): a dense Weights reply's tensors
	// named by where they lie in the generation region the peer offered in
	// its lane hello, no data. It exists only on a lane connection whose peer
	// offered a region; anywhere else it is a decode error. Its layout:
	// uint16 reference slot, uint32 logical body length (the body the frame
	// stands for, which the meters count), uint32 count, then per tensor the
	// dense section's rank, dims and element count followed by a uint64
	// byte offset into the region.
	tagTensorRefs = 0x19
	// The packed reference section: the same for a packed Weights reply (a
	// pull codec's), whose payloads lie in the region. Its layout: uint16
	// reference slot, uint32 logical body length, uint32 count, then per
	// packed tensor the packed section's header (compress.AppendBinaryHeader,
	// through the payload length) followed by a uint64 byte offset of the
	// payload into the region.
	tagPackedRefs = 0x1A

	// Prefetched pulls.
	tagPrefetch = 0x1B // uint8, must be 1
)

// hostLittleEndian reports whether the running machine stores integers
// little endian. On such hosts (every supported platform in practice) float
// slabs are moved with a single copy / alias; a big-endian host falls back
// to per-value conversion, keeping the wire format identical.
var hostLittleEndian = func() bool {
	var b [2]byte
	binary.NativeEndian.PutUint16(b[:], 1)
	return b[0] == 1
}()

// wireMismatchToken appears in every mismatch error this package produces —
// the local sentinels below and the Error frame a server sends a peer stamping
// another protocol version — so IsWireMismatch can recognize the condition
// even after the text crossed the wire as a plain string.
const wireMismatchToken = "wire protocol mismatch"

// ErrWireMismatch tags a frame that does not start with the protocol's magic
// — the peer is not speaking DSSP at all — and ErrWireVersion one stamped
// with a protocol version other than wireVersion. Callers fail fast instead
// of retrying; a server answers the second with an Error frame whose header
// names its own version (binaryConn.Recv).
var (
	ErrWireMismatch = errors.New("transport: " + wireMismatchToken)
	ErrWireVersion  = errors.New("transport: " + wireMismatchToken + " (version)")
)

// IsWireMismatch reports whether err indicates a wire-format or
// protocol-version mismatch — including one reported by the peer and
// relayed as error text. The condition is permanent for a given pair of
// configurations, so reconnect loops must treat it as fatal rather than
// retrying it for their whole backoff budget.
func IsWireMismatch(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrWireMismatch) || errors.Is(err, ErrWireVersion) {
		return true
	}
	return strings.Contains(err.Error(), wireMismatchToken)
}

// float32Bytes views a float32 slice as raw bytes (little-endian hosts only).
func float32Bytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 4*len(f))
}

// bytesFloat32 views a 4-byte-aligned byte slice as float32 values
// (little-endian hosts only). The caller guarantees len(b) == 4*n and that
// &b[0] is 4-byte aligned.
func bytesFloat32(b []byte, n int) []float32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}

// --- Encoding ---------------------------------------------------------------

// refSlabMin is the smallest payload slab (a tensor's float32 data, a packed
// tensor's payload) a vectored send puts on the wire by reference. Below it
// the copy into the frame buffer is cheaper than one more iovec entry, and a
// small model's whole frame still leaves in the single Write it always did.
const refSlabMin = 16 << 10

// slabRef is one by-reference segment of an assembled frame: data belongs on
// the wire between the inline bytes before off and those from off on.
type slabRef struct {
	off  int
	data []byte
}

// frameRefs collects the slabs appendFrameRefs leaves out of the inline
// buffer, in wire order. A nil *frameRefs inlines everything.
type frameRefs struct {
	// min is the smallest slab taken by reference.
	min   int
	list  []slabRef
	bytes int // total length of list's data
}

// size is the number of bytes taken by reference so far (nil-safe).
func (r *frameRefs) size() int {
	if r == nil {
		return 0
	}
	return r.bytes
}

// take records data as the next by-reference segment at dst's current end
// and reports whether it did; on false the caller appends data inline. Only
// little-endian hosts qualify: elsewhere float slabs need conversion.
func (r *frameRefs) take(dst []byte, data []byte) bool {
	if r == nil || !hostLittleEndian || len(data) < r.min {
		return false
	}
	r.list = append(r.list, slabRef{off: len(dst), data: data})
	r.bytes += len(data)
	return true
}

// truncate drops the segments recorded after the first n (an abandoned
// frame's) and their bytes.
func (r *frameRefs) truncate(n int) {
	if r == nil {
		return
	}
	for i := n; i < len(r.list); i++ {
		r.bytes -= len(r.list[i].data)
		r.list[i] = slabRef{}
	}
	r.list = r.list[:n]
}

// appendFrame appends the complete frame for m (header + body) to dst and
// returns the extended slice. It is the single source of truth for what goes
// on the wire; Send and the tests both route through it.
func appendFrame(dst []byte, m *Message) ([]byte, error) {
	return appendFrameRefs(dst, m, nil)
}

// AppendFrame is appendFrame for a caller outside the package that keeps
// frames in a file (a store checkpoint): the same bytes a Send puts on the
// wire.
func AppendFrame(dst []byte, m *Message) ([]byte, error) { return appendFrame(dst, m) }

// appendFrameRefs is appendFrame leaving the payload slabs refs accepts out
// of dst: the frame on the wire is dst with every recorded slab spliced in at
// its offset, byte for byte what appendFrame produces.
func appendFrameRefs(dst []byte, m *Message, refs *frameRefs) ([]byte, error) {
	if !m.Type.defined() {
		return dst, fmt.Errorf("transport: message type %d is not a defined MessageType", m.Type)
	}
	start := len(dst)
	refStart, refCount := refs.size(), 0
	if refs != nil {
		refCount = len(refs.list)
	}
	// Header placeholder; the length lands after the body is assembled.
	dst = append(dst, wireMagic...)
	dst = append(dst, wireVersion, byte(m.Type), 0, 0, 0, 0, 0, 0)

	// The body's offset in the spliced stream: by-reference bytes count as
	// if they sat in dst.
	bodyStart := len(dst) + refStart
	var err error
	if dst, err = appendBody(dst, bodyStart, m, refs); err != nil {
		refs.truncate(refCount)
		return dst[:start], err
	}
	bodyLen := len(dst) + refs.size() - bodyStart
	if bodyLen > maxFrameBody {
		refs.truncate(refCount)
		return dst[:start], fmt.Errorf("transport: %v frame body of %d bytes exceeds the %d-byte limit",
			m.Type, bodyLen, maxFrameBody)
	}
	binary.LittleEndian.PutUint32(dst[start+8:], uint32(bodyLen))
	return dst, nil
}

// appendBody appends m's tagged fields. bodyStart is the body's offset in
// the spliced stream (dst plus refs), the origin for slab alignment.
func appendBody(dst []byte, bodyStart int, m *Message, refs *frameRefs) ([]byte, error) {
	var err error
	if dst, err = appendIntField(dst, tagWorker, m.Worker, "Worker"); err != nil {
		return dst, err
	}
	if dst, err = appendIntField(dst, tagIteration, m.Iteration, "Iteration"); err != nil {
		return dst, err
	}
	if m.Version != 0 {
		dst = append(dst, tagVersion)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Version))
	}
	if dst, err = appendIntField(dst, tagTotal, m.Total, "Total"); err != nil {
		return dst, err
	}
	if dst, err = appendIntField(dst, tagStoreShards, m.StoreShards, "StoreShards"); err != nil {
		return dst, err
	}
	if m.Codec != "" {
		if len(m.Codec) > 255 {
			return dst, fmt.Errorf("transport: codec name of %d bytes exceeds 255", len(m.Codec))
		}
		dst = append(dst, tagCodec, byte(len(m.Codec)))
		dst = append(dst, m.Codec...)
	}
	if m.CodecTopK != 0 {
		dst = append(dst, tagCodecTopK)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.CodecTopK))
	}
	if m.CodecPull {
		dst = append(dst, tagCodecPull, 1)
	}
	if m.Error != "" {
		if len(m.Error) > maxFrameBody {
			return dst, fmt.Errorf("transport: error text of %d bytes is unreasonable", len(m.Error))
		}
		dst = append(dst, tagError)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Error)))
		dst = append(dst, m.Error...)
	}
	if len(m.Tensors) > 0 {
		if dst, err = appendTensorSection(dst, bodyStart, m.Tensors, refs); err != nil {
			return dst, err
		}
	}
	if len(m.Packed) > 0 {
		if dst, err = appendPackedSection(dst, m.Packed, refs); err != nil {
			return dst, err
		}
	}
	if m.Unchanged {
		dst = append(dst, tagUnchanged, 1)
	}
	if len(m.Servers) > 0 {
		if dst, err = appendServersSection(dst, m.Servers); err != nil {
			return dst, err
		}
	}
	if m.MapVersion != 0 {
		dst = append(dst, tagMapVersion)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.MapVersion))
	}
	if m.Replica {
		dst = append(dst, tagReplica, 1)
	}
	if m.Cluster {
		dst = append(dst, tagCluster, 1)
	}
	if m.Relay {
		dst = append(dst, tagRelay, 1)
	}
	if len(m.PushEntries) > 0 {
		if len(m.PushEntries) > maxFrameBody/16 {
			return dst, fmt.Errorf("transport: %d push entries exceed the frame limit", len(m.PushEntries))
		}
		dst = append(dst, tagPushEntries)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.PushEntries)))
		for i, e := range m.PushEntries {
			if e.Worker < math.MinInt32 || e.Worker > math.MaxInt32 {
				return dst, fmt.Errorf("transport: push entry %d worker %d outside the wire's int32 range", i, e.Worker)
			}
			if e.Iteration < math.MinInt32 || e.Iteration > math.MaxInt32 {
				return dst, fmt.Errorf("transport: push entry %d iteration %d outside the wire's int32 range", i, e.Iteration)
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(e.Worker)))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Version))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(e.Iteration)))
		}
	}
	if m.Prefetch {
		dst = append(dst, tagPrefetch, 1)
	}
	return dst, nil
}

// appendServersSection appends the cluster-map section: a count followed by
// each entry's address (uint16 length + bytes) and its four range bounds as
// uint32 two's-complement int32 values.
func appendServersSection(dst []byte, entries []ServerEntry) ([]byte, error) {
	if len(entries) > maxFrameBody/18 {
		return dst, fmt.Errorf("transport: %d cluster-map entries exceed the frame limit", len(entries))
	}
	dst = append(dst, tagServers)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	for i, e := range entries {
		if len(e.Addr) > math.MaxUint16 {
			return dst, fmt.Errorf("transport: cluster-map entry %d address of %d bytes exceeds %d", i, len(e.Addr), math.MaxUint16)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Addr)))
		dst = append(dst, e.Addr...)
		for _, v := range [4]int{e.ShardLo, e.ShardHi, e.TensorLo, e.TensorHi} {
			if v < 0 || v > math.MaxInt32 {
				return dst, fmt.Errorf("transport: cluster-map entry %d range bound %d outside the wire's int32 range", i, v)
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(v)))
		}
	}
	return dst, nil
}

// appendIntField appends a tagged uint32 field holding an int32
// two's-complement value, omitting zero.
func appendIntField(dst []byte, tag byte, v int, name string) ([]byte, error) {
	if v == 0 {
		return dst, nil
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return dst, fmt.Errorf("transport: field %s value %d outside the wire's int32 range", name, v)
	}
	dst = append(dst, tag)
	return binary.LittleEndian.AppendUint32(dst, uint32(int32(v))), nil
}

// appendTensorSection appends the dense-tensor section: a count followed by
// each tensor's rank, dimensions, element count, alignment padding, and raw
// float32 slab — appended, or handed to refs when it takes the slab.
func appendTensorSection(dst []byte, bodyStart int, ts []WireTensor, refs *frameRefs) ([]byte, error) {
	dst = append(dst, tagTensors)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ts)))
	for i, t := range ts {
		if len(t.Shape) > maxTensorDims {
			return dst, fmt.Errorf("transport: tensor %d has rank %d, wire limit is %d", i, len(t.Shape), maxTensorDims)
		}
		n := 1
		for _, d := range t.Shape {
			if d <= 0 || d > maxFrameBody {
				return dst, fmt.Errorf("transport: tensor %d has unencodable dimension %d", i, d)
			}
			n *= d
		}
		if n != len(t.Data) {
			return dst, fmt.Errorf("transport: tensor %d has %d values for shape %v", i, len(t.Data), t.Shape)
		}
		dst = append(dst, byte(len(t.Shape)))
		for _, d := range t.Shape {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
		// Pad so the slab starts 4-byte aligned relative to the body start,
		// letting the decoder alias it as []float32 directly.
		for (len(dst)+refs.size()-bodyStart)%4 != 0 {
			dst = append(dst, 0)
		}
		if hostLittleEndian {
			if slab := float32Bytes(t.Data); !refs.take(dst, slab) {
				dst = append(dst, slab...)
			}
		} else {
			for _, v := range t.Data {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
			}
		}
	}
	return dst, nil
}

// appendPackedSection appends the compressed-tensor section; the per-tensor
// layout is owned by compress.Packed (AppendBinaryHeader, then the payload,
// which refs may take).
func appendPackedSection(dst []byte, ps []compress.Packed, refs *frameRefs) ([]byte, error) {
	dst = append(dst, tagPacked)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ps)))
	for i, p := range ps {
		var err error
		if dst, err = p.AppendBinaryHeader(dst); err != nil {
			return dst, fmt.Errorf("transport: packed tensor %d: %w", i, err)
		}
		if !refs.take(dst, p.Payload) {
			dst = append(dst, p.Payload...)
		}
	}
	return dst, nil
}

// --- Decoding ---------------------------------------------------------------

// bodyPool is a connection's free list of released body buffers (one per
// direction on an in-process connection, which leases whole frames). Buffers
// leave it when readFrame — or a channel Send — takes one for a message and
// come back through Message.Release, from whichever goroutine finished with
// the payload; one that never comes back is garbage-collected with its
// message.
type bodyPool struct {
	mu     sync.Mutex
	free   [][]byte
	bytes  int // summed capacity of free
	closed bool
}

// get removes and returns the smallest free buffer with room for n bytes,
// emptied, or nil.
func (p *bodyPool) get(n int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := -1
	for i, b := range p.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(p.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	buf := p.free[best]
	last := len(p.free) - 1
	p.free[best] = p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	p.bytes -= cap(buf)
	return buf[:0]
}

// put returns a buffer to the free list, evicting the oldest entries to stay
// under the caps; a buffer over the byte cap on its own, or one released
// after the connection closed, is dropped.
func (p *bodyPool) put(buf []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || cap(buf) > maxFreeBodyBytes {
		return
	}
	for len(p.free) > 0 && (p.bytes+cap(buf) > maxFreeBodyBytes || len(p.free) >= maxFreeBodies) {
		p.bytes -= cap(p.free[0])
		copy(p.free, p.free[1:])
		p.free[len(p.free)-1] = nil
		p.free = p.free[:len(p.free)-1]
	}
	p.free = append(p.free, buf)
	p.bytes += cap(buf)
}

// close drops the free list; later releases are dropped too.
func (p *bodyPool) close() {
	p.mu.Lock()
	p.closed = true
	p.free, p.bytes = nil, 0
	p.mu.Unlock()
}

// bodyLease ties a decoded message to the buffer its payload aliases: a
// pooled heap buffer (a socket's body, an in-process frame), or on a lane
// connection the arena slot the frame arrived in (lane.go). Copies of the
// message share it, so whichever copy releases first wins and the rest are
// no-ops.
type bodyLease struct {
	pool *bodyPool
	buf  []byte
	// arena and page replace pool when buf is a lane slot. On a reference
	// frame's message (region.go) buf is nil, page is the reference slot and
	// span the range of the peer's region its tensors lie in.
	arena *arena
	page  int
	span  *regionSpan
	reg   *region
	done  atomic.Bool
}

// releaseHook, when set, sees every leased body at the moment it is
// released, before the buffer can be leased again (SetReleaseHook).
var releaseHook atomic.Pointer[func(body []byte)]

// SetReleaseHook installs fn to observe each leased receive buffer at the
// moment its message releases it, and returns a function restoring the
// previous hook. It exists for tests that poison released buffers so that a
// reader still holding one fails loudly; nothing outside tests calls it.
func SetReleaseHook(fn func(body []byte)) (restore func()) {
	prev := releaseHook.Swap(&fn)
	return func() { releaseHook.Store(prev) }
}

func (l *bodyLease) release() {
	if l.done.Swap(true) {
		return
	}
	if h := releaseHook.Load(); h != nil && *h != nil {
		(*h)(l.buf)
	}
	l.giveBack()
}

// giveBack returns the buffer to where it came from: the connection's free
// list, or — one atomic store in the arena header — the sending peer, which
// for a reference this process passed on waits for the last receiver of it.
func (l *bodyLease) giveBack() {
	if l.arena == nil {
		l.pool.put(l.buf)
		return
	}
	runtime.SetFinalizer(l, nil)
	if l.span != nil {
		l.reg.release(l.span)
		return
	}
	l.arena.state(l.page).Store(0)
	l.arena.drop()
}

// How readFrame obtained the last frame's body, for the receive-side reuse
// metering (Metrics.recvBody).
const (
	bodyScratch = iota // control message decoded in the shared scratch
	bodyReused         // payload frame read into a recycled leased buffer
	bodyAlloc          // payload frame read into a fresh allocation
	bodyLane           // payload frame parsed in place in a lane slot
	bodyRef            // reference frame: the payload read in the peer's region
)

// frameReader holds the per-connection decode state reused across messages.
type frameReader struct {
	br *bufio.Reader
	// scratch is the reusable buffer for small (control-message) bodies.
	scratch []byte
	// pool recycles the buffers of payload frames once their messages
	// release them.
	pool *bodyPool
	// arena is the inbound half of a lane connection, where frames whose
	// header names a slot have their body; nil on TCP. region is the
	// generation region the peer offered in its hello, which its reference
	// frames point into; nil when it offered none.
	arena  *arena
	region *region
	// frames counts successfully started reads, distinguishing the very
	// first frame (where a mismatch means a misconfigured peer, not
	// corruption) from mid-stream failures.
	frames int
	// lastSize is the on-wire size (header + body) of the last frame
	// readFrame decoded and lastBody where its body went, for transport
	// metering.
	lastSize int
	lastBody int
}

// newFrameReader wraps a connection's buffered reader (binaryReadBuffer says
// what it buffers and what it must not): one reader per connection, reused
// for every message.
func newFrameReader(r *bufio.Reader) *frameReader {
	return &frameReader{br: r, scratch: make([]byte, 0, smallBodyMax), pool: &bodyPool{}}
}

// ReadFrame reads and decodes one frame from r with every check a socket's
// frames meet: magic, wire version, the body-length cap, the sections'
// bounds. A header naming a lane slot is refused, and a reference section
// does not parse (r has no region behind it). Frames written by AppendFrame
// are read back one call at a time from the same r.
func ReadFrame(r *bufio.Reader) (Message, error) { return newFrameReader(r).readFrame() }

// readFrame reads and decodes one frame. The returned message owns its
// payload: tensor data may alias a buffer that is the message's alone until
// Message.Release hands it back to this reader's free list.
func (fr *frameReader) readFrame() (Message, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return Message{}, err
	}
	fr.frames++
	if string(hdr[:4]) != wireMagic {
		return Message{}, fmt.Errorf("%w: not a DSSP frame (magic % x, want %q)", ErrWireMismatch, hdr[:4], wireMagic)
	}
	if version := hdr[4]; version != wireVersion {
		return Message{}, fmt.Errorf("%w: peer speaks binary wire protocol version %d, this side speaks %d",
			ErrWireVersion, version, wireVersion)
	}
	typ := hdr[5]
	if !MessageType(typ).defined() {
		return Message{}, fmt.Errorf("transport: frame carries unknown message type %d", typ)
	}
	slot := int(binary.LittleEndian.Uint16(hdr[6:]))
	if slot != 0 && fr.arena == nil {
		return Message{}, fmt.Errorf("transport: reserved header bytes % x are not zero", hdr[6:8])
	}
	// Validate as uint32 before converting: on a 32-bit platform a length
	// >= 2^31 would wrap int negative and slip past the limit check.
	declared := binary.LittleEndian.Uint32(hdr[8:])
	if declared > maxFrameBody {
		return Message{}, fmt.Errorf("transport: declared body of %d bytes exceeds the %d-byte limit", declared, maxFrameBody)
	}
	bodyLen := int(declared)
	fr.lastSize = headerSize + bodyLen
	if slot != 0 {
		return fr.readSlot(typ, slot, bodyLen)
	}

	if bodyLen <= smallBodyMax {
		body, err := readBody(fr.br, fr.scratch[:0], bodyLen)
		if err != nil {
			return Message{}, err
		}
		fr.scratch = body[:0]
		fr.lastBody = bodyScratch
		// The scratch buffer is reused by the next Recv.
		return adopt(typ, body, nil, fr)
	}

	// A payload frame gets a leased buffer. A recycled one was sized by a
	// frame that really arrived, so readBody fills it as it is; only when
	// there is none does its guard against a forged length allocate.
	pooled := fr.pool.get(bodyLen)
	fr.lastBody = bodyAlloc
	if pooled != nil {
		fr.lastBody = bodyReused
	}
	body, err := readBody(fr.br, pooled, bodyLen)
	if err != nil {
		if pooled != nil {
			fr.pool.put(pooled)
		}
		return Message{}, err
	}
	return adopt(typ, body, &bodyLease{pool: fr.pool, buf: body}, fr)
}

// adopt decodes one frame body into the message that owns it from here on —
// the step every carrier's receive path ends in. lease says where body goes
// back to: it ends with the message's Release, or right here when the body
// does not parse. A nil lease means body is the caller's to reuse as soon as
// adopt returns (a small frame), so whatever payload was parsed out of it is
// copied; control messages carry none, so that never copies in the steady
// state.
//
// On a lane connection whose peer offered a region (fr.region) the body may
// be a reference frame instead: its tensors are views of the region, body is
// not aliased and goes back at once, and the message's lease is the
// reference slot (referenceLease). fr is nil on the channel transport.
func adopt(typ byte, body []byte, lease *bodyLease, fr *frameReader) (Message, error) {
	var reg *region
	if fr != nil {
		reg = fr.region
	}
	m, ref, err := parseBody(typ, body, reg)
	if lease != nil && (err != nil || ref.end > 0) {
		lease.giveBack()
	}
	switch {
	case err != nil:
		return Message{}, err
	case ref.end > 0:
		if lease, err = fr.referenceLease(ref); err != nil {
			return Message{}, err
		}
	case lease == nil:
		m.copyPayloads()
	}
	m.lease = lease
	return m, nil
}

// readBody reads exactly n bytes into (a possibly grown) dst. A body of up to
// two read chunks is allocated whole — growing it would allocate the first
// chunk, then the full size, and copy one across, for a frame that is a
// model's everyday weights reply. A larger body grows in bounded chunks as
// data actually arrives, so a forged length field cannot drive a huge
// up-front allocation: at most two chunks, or twice what arrived plus one.
func readBody(br *bufio.Reader, dst []byte, n int) ([]byte, error) {
	if cap(dst) < n {
		want := cap(dst)
		if want < bodyReadChunk {
			want = bodyReadChunk
		}
		if want > n || n <= 2*bodyReadChunk {
			want = n
		}
		// Fresh buffer: allocations are at least pointer-aligned, keeping
		// 4-byte slab alignment guarantees intact.
		dst = make([]byte, 0, want)
	}
	for len(dst) < n {
		chunk := n - len(dst)
		if chunk > bodyReadChunk {
			chunk = bodyReadChunk
		}
		if cap(dst)-len(dst) < chunk {
			// Grow geometrically, capped at the declared length: the copy
			// cost stays linear in the body size, while capacity still only
			// ever doubles what has actually arrived — a forged length
			// cannot outrun real input by more than 2x plus one chunk.
			newCap := 2 * cap(dst)
			if newCap < len(dst)+chunk {
				newCap = len(dst) + chunk
			}
			if newCap > n {
				newCap = n
			}
			grown := make([]byte, len(dst), newCap)
			copy(grown, dst)
			dst = grown
		}
		start := len(dst)
		dst = dst[:start+chunk]
		if _, err := io.ReadFull(br, dst[start:]); err != nil {
			return nil, fmt.Errorf("transport: body truncated at %d of %d bytes: %w", start, n, err)
		}
	}
	return dst, nil
}

// parseBody decodes the tagged fields of one frame body into a Message.
// WireTensor data and Packed payloads alias body.
func parseBody(typ byte, body []byte, reg *region) (Message, refSection, error) {
	m := Message{Type: MessageType(typ)}
	var ref refSection
	off := 0
	prevTag := 0
	for off < len(body) {
		tag := int(body[off])
		off++
		if tag <= prevTag {
			return Message{}, ref, fmt.Errorf("transport: field tag 0x%02x out of order after 0x%02x", tag, prevTag)
		}
		prevTag = tag
		var err error
		switch tag {
		case tagWorker:
			m.Worker, off, err = parseIntField(body, off)
		case tagIteration:
			m.Iteration, off, err = parseIntField(body, off)
		case tagVersion:
			if off+8 > len(body) {
				err = errTruncatedField
			} else {
				m.Version = int64(binary.LittleEndian.Uint64(body[off:]))
				off += 8
			}
		case tagTotal:
			m.Total, off, err = parseIntField(body, off)
		case tagStoreShards:
			m.StoreShards, off, err = parseIntField(body, off)
		case tagCodec:
			if off >= len(body) || off+1+int(body[off]) > len(body) {
				err = errTruncatedField
			} else {
				n := int(body[off])
				m.Codec = string(body[off+1 : off+1+n])
				off += 1 + n
			}
		case tagCodecTopK:
			if off+8 > len(body) {
				err = errTruncatedField
			} else {
				m.CodecTopK = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
				off += 8
			}
		case tagCodecPull:
			if off >= len(body) {
				err = errTruncatedField
			} else if body[off] != 1 {
				err = fmt.Errorf("transport: CodecPull byte is %d, want 1", body[off])
			} else {
				m.CodecPull = true
				off++
			}
		case tagError:
			if off+4 > len(body) {
				err = errTruncatedField
			} else {
				// Compare against the remaining bytes rather than computing
				// off+4+n, which could overflow int on 32-bit platforms.
				n := int(binary.LittleEndian.Uint32(body[off:]))
				if n < 0 || n > len(body)-off-4 {
					err = errTruncatedField
				} else {
					m.Error = string(body[off+4 : off+4+n])
					off += 4 + n
				}
			}
		case tagTensors:
			m.Tensors, off, err = parseTensorSection(body, off)
		case tagPacked:
			m.Packed, off, err = parsePackedSection(body, off)
		case tagUnchanged:
			if off >= len(body) {
				err = errTruncatedField
			} else if body[off] != 1 {
				err = fmt.Errorf("transport: Unchanged byte is %d, want 1", body[off])
			} else {
				m.Unchanged = true
				off++
			}
		case tagServers:
			m.Servers, off, err = parseServersSection(body, off)
		case tagMapVersion:
			if off+8 > len(body) {
				err = errTruncatedField
			} else {
				m.MapVersion = int64(binary.LittleEndian.Uint64(body[off:]))
				off += 8
			}
		case tagReplica:
			if off >= len(body) {
				err = errTruncatedField
			} else if body[off] != 1 {
				err = fmt.Errorf("transport: Replica byte is %d, want 1", body[off])
			} else {
				m.Replica = true
				off++
			}
		case tagCluster:
			if off >= len(body) {
				err = errTruncatedField
			} else if body[off] != 1 {
				err = fmt.Errorf("transport: Cluster byte is %d, want 1", body[off])
			} else {
				m.Cluster = true
				off++
			}
		case tagRelay:
			if off >= len(body) {
				err = errTruncatedField
			} else if body[off] != 1 {
				err = fmt.Errorf("transport: Relay byte is %d, want 1", body[off])
			} else {
				m.Relay = true
				off++
			}
		case tagPushEntries:
			if off+4 > len(body) {
				err = errTruncatedField
			} else {
				n := int(binary.LittleEndian.Uint32(body[off:]))
				if n < 0 || n > (len(body)-off-4)/16 {
					err = fmt.Errorf("transport: %d push entries cannot fit in %d remaining bytes", n, len(body)-off-4)
				} else {
					off += 4
					m.PushEntries = make([]PushEntry, n)
					for i := range m.PushEntries {
						m.PushEntries[i] = PushEntry{
							Worker:    int(int32(binary.LittleEndian.Uint32(body[off:]))),
							Version:   int64(binary.LittleEndian.Uint64(body[off+4:])),
							Iteration: int(int32(binary.LittleEndian.Uint32(body[off+12:]))),
						}
						off += 16
					}
				}
			}
		case tagPrefetch:
			if off >= len(body) {
				err = errTruncatedField
			} else if body[off] != 1 {
				err = fmt.Errorf("transport: Prefetch byte is %d, want 1", body[off])
			} else {
				m.Prefetch = true
				off++
			}
		case tagTensorRefs, tagPackedRefs:
			switch {
			case reg == nil:
				err = errors.New("a reference frame on a connection whose peer offered no region")
			case m.Tensors != nil || m.Packed != nil:
				err = errors.New("tensors and references in one frame")
			case tag == tagTensorRefs:
				m.Tensors, ref, off, err = parseRefSection(body, off, reg)
			default:
				m.Packed, ref, off, err = parsePackedRefSection(body, off, reg)
			}
		default:
			err = fmt.Errorf("transport: unknown field tag 0x%02x", tag)
		}
		if err != nil {
			return Message{}, ref, fmt.Errorf("transport: decode %v frame: %w", MessageType(typ), err)
		}
	}
	return m, ref, nil
}

// refSection is what a reference section says beyond its tensors: the
// reference slot, the logical body length, and the range of the region its
// tensors span (end 0: the frame carries no reference).
type refSection struct {
	slot, logical int
	off, end      int
}

// parseRefSection decodes the reference section: each tensor's data is a view
// of the peer's region as this process mapped it. Whatever the offsets say,
// the views lie inside the mapping or the frame is an error.
func parseRefSection(body []byte, off int, reg *region) ([]WireTensor, refSection, int, error) {
	var ref refSection
	if off+10 > len(body) {
		return nil, ref, off, errTruncatedField
	}
	ref.slot = int(binary.LittleEndian.Uint16(body[off:]))
	ref.logical = int(binary.LittleEndian.Uint32(body[off+2:]))
	count := int(binary.LittleEndian.Uint32(body[off+6:]))
	off += 10
	// Minimum encoding per tensor: rank byte, element count and offset.
	if ref.logical > maxFrameBody || count < 1 || count > (len(body)-off)/13 {
		return nil, ref, off, fmt.Errorf("reference section of %d tensors for a %d-byte body cannot fit in %d remaining bytes", count, ref.logical, len(body)-off)
	}
	ts := make([]WireTensor, count)
	dims := make([]int, 0, 2*count)
	for i := range ts {
		ndims := int(body[off])
		off++
		if ndims > maxTensorDims || off+4*ndims+12 > len(body) {
			return nil, ref, off, fmt.Errorf("reference %d has rank %d or is truncated", i, ndims)
		}
		start := len(dims)
		n := 1
		for range ndims {
			dim := int(binary.LittleEndian.Uint32(body[off:]))
			off += 4
			if dim <= 0 || n > maxFrameBody/4/dim {
				return nil, ref, off, fmt.Errorf("reference %d dimension %d overflows the frame limit", i, dim)
			}
			dims = append(dims, dim)
			n *= dim
		}
		if declared := int(binary.LittleEndian.Uint32(body[off:])); declared != n {
			return nil, ref, off, fmt.Errorf("reference %d declares %d elements for %d", i, declared, n)
		}
		at := binary.LittleEndian.Uint64(body[off+4:])
		off += 12
		if at%4 != 0 || at > uint64(len(reg.mem)) || uint64(len(reg.mem))-at < uint64(4*n) {
			return nil, ref, off, fmt.Errorf("reference %d of %d bytes at offset %d lies outside the %d-byte region", i, 4*n, at, len(reg.mem))
		}
		lo, hi := int(at), int(at)+4*n
		if ref.end == 0 || lo < ref.off {
			ref.off = lo
		}
		ref.end = max(ref.end, hi)
		ts[i] = WireTensor{Shape: dims[start:len(dims):len(dims)], Data: bytesFloat32(reg.mem[lo:hi], n)}
	}
	return ts, ref, off, nil
}

// parsePackedRefSection decodes the packed reference section: each payload
// is a view of the peer's region as this process mapped it, inside the
// mapping or the frame is an error.
func parsePackedRefSection(body []byte, off int, reg *region) ([]compress.Packed, refSection, int, error) {
	var ref refSection
	if off+10 > len(body) {
		return nil, ref, off, errTruncatedField
	}
	ref.slot = int(binary.LittleEndian.Uint16(body[off:]))
	ref.logical = int(binary.LittleEndian.Uint32(body[off+2:]))
	count := int(binary.LittleEndian.Uint32(body[off+6:]))
	off += 10
	// Minimum encoding per tensor: a rank-0 header and the offset.
	if ref.logical > maxFrameBody || count < 1 || count > (len(body)-off)/(compress.PackedBinaryMinSize+8) {
		return nil, ref, off, fmt.Errorf("packed reference section of %d tensors for a %d-byte body cannot fit in %d remaining bytes", count, ref.logical, len(body)-off)
	}
	ps := make([]compress.Packed, count)
	for i := range ps {
		p, n, size, err := compress.DecodeBinaryHeader(body[off:])
		if err != nil {
			return nil, ref, off, fmt.Errorf("packed reference %d: %w", i, err)
		}
		off += n
		if off+8 > len(body) {
			return nil, ref, off, errTruncatedField
		}
		at := binary.LittleEndian.Uint64(body[off:])
		off += 8
		if size < 1 || at > uint64(len(reg.mem)) || uint64(len(reg.mem))-at < uint64(size) {
			return nil, ref, off, fmt.Errorf("packed reference %d of %d bytes at offset %d lies outside the %d-byte region", i, size, at, len(reg.mem))
		}
		lo, hi := int(at), int(at)+size
		if ref.end == 0 || lo < ref.off {
			ref.off = lo
		}
		ref.end = max(ref.end, hi)
		p.Payload = reg.mem[lo:hi:hi]
		ps[i] = p
	}
	return ps, ref, off, nil
}

// appendRefFrame appends the reference frame standing for m — whose logical
// body is bodyLen bytes — to dst: m's frame without its tensors, dense or
// packed, followed by the reference section naming slot and each tensor's
// region offset (ranges holds an offset and a length per tensor; the
// reference tags are the highest a Weights reply carries, so the section goes
// last). m has been
// encoded in full already, so its shapes are known to be sound.
func appendRefFrame(dst []byte, m *Message, slot, bodyLen int, ranges []int) ([]byte, error) {
	start := len(dst)
	bare := *m
	bare.Tensors, bare.Packed = nil, nil
	dst, err := appendFrame(dst, &bare)
	if err != nil {
		return dst, err
	}
	tag, count := byte(tagTensorRefs), len(m.Tensors)
	if len(m.Packed) > 0 {
		tag, count = tagPackedRefs, len(m.Packed)
	}
	dst = append(dst, tag)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(slot))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	for i, t := range m.Tensors {
		dst = append(dst, byte(len(t.Shape)))
		for _, d := range t.Shape {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Data)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(ranges[2*i]))
	}
	for i, p := range m.Packed {
		if dst, err = p.AppendBinaryHeader(dst); err != nil {
			return dst[:start], err
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(ranges[2*i]))
	}
	binary.LittleEndian.PutUint32(dst[start+8:], uint32(len(dst)-start-headerSize))
	return dst, nil
}

var errTruncatedField = fmt.Errorf("field truncated")

// parseIntField decodes a uint32 field as a sign-extended int.
func parseIntField(body []byte, off int) (int, int, error) {
	if off+4 > len(body) {
		return 0, off, errTruncatedField
	}
	return int(int32(binary.LittleEndian.Uint32(body[off:]))), off + 4, nil
}

// parseTensorSection decodes the dense-tensor section. Each tensor's data
// aliases body when the host is little endian and the slab is 4-byte aligned
// (the encoder guarantees alignment, so conversion only runs on corrupt
// input or exotic hosts).
func parseTensorSection(body []byte, off int) ([]WireTensor, int, error) {
	if off+4 > len(body) {
		return nil, off, errTruncatedField
	}
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	// Minimum encoding per tensor: rank byte + element count + slab of at
	// least one aligned float32. Capping count against the bytes actually
	// present keeps a forged count from driving the slice allocation.
	if count < 0 || count > (len(body)-off)/9+1 {
		return nil, off, fmt.Errorf("tensor count %d cannot fit in %d remaining bytes", count, len(body)-off)
	}
	ts := make([]WireTensor, count)
	// dims backs the shapes: one allocation sized for the section at the
	// first tensor's rank (capped, so a forged count buys little), another
	// only when the tensors that follow outgrow it.
	var dims []int
	for i := range ts {
		if off >= len(body) {
			return nil, off, errTruncatedField
		}
		ndims := int(body[off])
		off++
		if ndims > maxTensorDims {
			return nil, off, fmt.Errorf("tensor %d has rank %d, wire limit is %d", i, ndims, maxTensorDims)
		}
		if off+4*ndims+4 > len(body) {
			return nil, off, errTruncatedField
		}
		if len(dims) < ndims {
			dims = make([]int, min(max(ndims, 2)*(count-i), 1024))
		}
		shape := dims[:ndims:ndims]
		dims = dims[ndims:]
		n := 1
		for d := range shape {
			dim := int(binary.LittleEndian.Uint32(body[off:]))
			off += 4
			if dim <= 0 || n > maxFrameBody/4/dim {
				return nil, off, fmt.Errorf("tensor %d dimension %d overflows the frame limit", i, dim)
			}
			shape[d] = dim
			n *= dim
		}
		declared := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if declared != n {
			return nil, off, fmt.Errorf("tensor %d declares %d elements for shape %v (%d)", i, declared, shape, n)
		}
		for off%4 != 0 {
			if off >= len(body) || body[off] != 0 {
				return nil, off, fmt.Errorf("tensor %d has bad slab padding", i)
			}
			off++
		}
		if off+4*n > len(body) {
			return nil, off, errTruncatedField
		}
		slab := body[off : off+4*n]
		off += 4 * n
		var data []float32
		if hostLittleEndian && (n == 0 || uintptr(unsafe.Pointer(&slab[0]))%4 == 0) {
			data = bytesFloat32(slab, n)
		} else {
			data = make([]float32, n)
			for j := range data {
				data[j] = math.Float32frombits(binary.LittleEndian.Uint32(slab[4*j:]))
			}
		}
		ts[i] = WireTensor{Shape: shape, Data: data}
	}
	return ts, off, nil
}

// parsePackedSection decodes the compressed-tensor section; payload bytes
// alias body.
func parsePackedSection(body []byte, off int) ([]compress.Packed, int, error) {
	if off+4 > len(body) {
		return nil, off, errTruncatedField
	}
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if count < 0 || count > (len(body)-off)/compress.PackedBinaryMinSize+1 {
		return nil, off, fmt.Errorf("packed count %d cannot fit in %d remaining bytes", count, len(body)-off)
	}
	ps := make([]compress.Packed, count)
	for i := range ps {
		p, n, err := compress.DecodeBinary(body[off:])
		if err != nil {
			return nil, off, fmt.Errorf("packed tensor %d: %w", i, err)
		}
		ps[i] = p
		off += n
	}
	return ps, off, nil
}

// parseServersSection decodes the cluster-map section. Addresses are copied
// out of body (they are small strings, not payload slabs).
func parseServersSection(body []byte, off int) ([]ServerEntry, int, error) {
	if off+4 > len(body) {
		return nil, off, errTruncatedField
	}
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	// Minimum encoding per entry: uint16 address length + 4 range bounds.
	if count < 0 || count > (len(body)-off)/18+1 {
		return nil, off, fmt.Errorf("cluster-map count %d cannot fit in %d remaining bytes", count, len(body)-off)
	}
	entries := make([]ServerEntry, count)
	for i := range entries {
		if off+2 > len(body) {
			return nil, off, errTruncatedField
		}
		alen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+alen+16 > len(body) {
			return nil, off, errTruncatedField
		}
		addr := string(body[off : off+alen])
		off += alen
		var bounds [4]int
		for j := range bounds {
			bounds[j] = int(int32(binary.LittleEndian.Uint32(body[off:])))
			off += 4
			if bounds[j] < 0 {
				return nil, off, fmt.Errorf("cluster-map entry %d has negative range bound %d", i, bounds[j])
			}
		}
		entries[i] = ServerEntry{Addr: addr, ShardLo: bounds[0], ShardHi: bounds[1], TensorLo: bounds[2], TensorHi: bounds[3]}
	}
	return entries, off, nil
}

// --- The binary Conn --------------------------------------------------------

// binaryConn is a Conn over a TCP socket — or, between same-host peers, the
// lane's unix socket (lane.go) — speaking the binary frame protocol. Send assembles headers, tags and small slabs into a reusable
// buffer and writes the frame with a single syscall, gathering large payload
// slabs straight from the memory they live in (writev); Recv reuses a small
// buffered reader for headers and control frames, a scratch buffer for
// control bodies and leased buffers for payload frames, so the steady-state
// protocol copies a payload once per direction in user space — socket to
// leased buffer — and allocates nothing that scales with it. A mutex on each
// direction allows Send and Recv from different goroutines.
type binaryConn struct {
	conn net.Conn
	// server marks the accepting side, which answers a first frame stamped
	// with another protocol version with an Error frame so the peer fails
	// fast instead of waiting forever for a registration reply.
	server bool
	// meter, when non-nil, counts frames and exact on-wire bytes per
	// message type and direction.
	meter *Metrics
	// carrier is what the connection runs over, carrierTCP or carrierLane.
	carrier   string
	closeOnce sync.Once

	// encBuf holds a send's inline bytes and refs the slabs going out by
	// reference; vec is the reused backing array of the gather list built
	// from the two, bufs the net.Buffers view WriteTo consumes, and sizes
	// SendBatch's per-frame byte counts for the meter. All guarded by encMu.
	encMu  sync.Mutex
	encBuf []byte
	refs   frameRefs
	vec    [][]byte
	bufs   net.Buffers
	sizes  []int
	// laneOut is the outbound half of a lane connection, where Send puts
	// payload bodies instead of on the socket (divert); nil on TCP.
	// regionOut is the region it offered its peer, which reference frames
	// point into, and peer the process it offered it to (both nil when
	// none); ranges is reference's scratch.
	laneOut   *arena
	regionOut *regionOffer
	peer      *lanePeer
	ranges    []int

	decMu sync.Mutex
	fr    *frameReader
}

// binaryReadBuffer sizes the per-connection read buffer. It exists for the
// small frames: a header, a run of OKs and heartbeats, a control reply behind
// them all arrive in one read. A payload body must not pass through it —
// whatever of the body the header's read already pulled in is copied out
// again — and bufio reads straight into the destination once it is asked for
// at least a buffer's worth, so the buffer is kept no larger than the frames
// it is for: at 256 KB a quarter of every megabyte body was copied twice.
const binaryReadBuffer = 16 << 10

// maxRetainedEncBuf caps the encode buffer kept between sends: reuse makes
// the steady state allocation-free, but an occasional outsized batch (a
// multi-shard pull reply coalesced into one write) must not pin its
// high-water mark on the connection forever.
const maxRetainedEncBuf = 4 << 20

// retainEncBuf returns the buffer to keep for the next send: buf recycled
// when reasonable, nothing when it ballooned.
func retainEncBuf(buf []byte) []byte {
	if cap(buf) > maxRetainedEncBuf {
		return nil
	}
	return buf[:0]
}

// newBinaryConn wraps an established socket, TCP until the lane's handshake
// says otherwise.
func newBinaryConn(c net.Conn, server bool) *binaryConn {
	return &binaryConn{
		conn:    c,
		server:  server,
		carrier: carrierTCP,
		refs:    frameRefs{min: refSlabMin},
		fr:      newFrameReader(bufio.NewReaderSize(c, binaryReadBuffer)),
	}
}

// metered attaches the listener's or dialer's meter (nil disables) and counts
// the connection open on its carrier.
func (c *binaryConn) metered(meter *Metrics) *binaryConn {
	c.meter = meter
	meter.connOpened(c.carrier)
	return c
}

// Send implements Conn. The frame's inline bytes are assembled in a reusable
// buffer and the frame leaves in one write call (a writev when payload slabs
// go by reference), so a sent message is never stranded in user space, the
// memory it aliases is not read after Send returns, and steady-state sends
// allocate nothing.
func (c *binaryConn) Send(m Message) error {
	c.encMu.Lock()
	defer c.encMu.Unlock()
	buf, err := appendFrameRefs(c.encBuf[:0], &m, &c.refs)
	if err != nil {
		return fmt.Errorf("transport: send %v: %w", m.Type, err)
	}
	// Counted before the write, which lets the peer read it: a receiver never
	// sees a frame its sender has not counted.
	c.meter.Sent(m.Type, len(buf)+c.refs.bytes)
	if err := c.writeLocked(c.divert(buf, 0, 0, &m)); err != nil {
		return fmt.Errorf("transport: send %v: %w", m.Type, err)
	}
	return nil
}

// SendBatch implements BatchSender: every frame is assembled back to back in
// the reusable buffer and the whole batch goes to the kernel in one write
// call, so releasing a barrier's worth of queued messages costs one syscall
// instead of one per message.
func (c *binaryConn) SendBatch(ms []Message) error {
	if len(ms) == 0 {
		return nil
	}
	c.encMu.Lock()
	defer c.encMu.Unlock()
	buf := c.encBuf[:0]
	c.sizes = c.sizes[:0]
	laneMark := c.laneOut.mark()
	var err error
	for i := range ms {
		start, refCount := len(buf), len(c.refs.list)
		before := start + c.refs.bytes
		if buf, err = appendFrameRefs(buf, &ms[i], &c.refs); err != nil {
			c.refs.truncate(0)
			c.laneOut.abandon(laneMark)
			return fmt.Errorf("transport: send %v: %w", ms[i].Type, err)
		}
		c.sizes = append(c.sizes, len(buf)+c.refs.bytes-before)
		buf = c.divert(buf, start, refCount, &ms[i])
	}
	if c.meter != nil {
		for i := range ms {
			c.meter.Sent(ms[i].Type, c.sizes[i])
		}
		c.meter.Batch(len(ms))
	}
	if err := c.writeLocked(buf); err != nil {
		return fmt.Errorf("transport: send batch of %d: %w", len(ms), err)
	}
	return nil
}

// writeLocked puts the assembled frames on the wire: buf alone in one Write
// when nothing went by reference, otherwise buf's pieces and the recorded
// slabs gathered in wire order — a single writev on a TCP socket, sequential
// writes on any other net.Conn. Whatever the outcome the slabs are dropped
// from the connection's state before it returns. Caller holds encMu.
func (c *binaryConn) writeLocked(buf []byte) error {
	c.encBuf = retainEncBuf(buf)
	if len(c.refs.list) == 0 {
		_, err := c.conn.Write(buf)
		return err
	}
	vec := gather(c.vec[:0], buf, 0, c.refs.list)
	// WriteTo consumes c.bufs (a view of vec); vec keeps the backing array
	// for the next send, its entries cleared so it pins no payload.
	c.bufs = vec
	_, err := c.bufs.WriteTo(c.conn)
	clear(vec)
	c.vec, c.bufs = vec[:0], nil
	c.refs.truncate(0)
	return err
}

// gather appends to vec, in wire order, the pieces of buf from offset from on
// and the slabs refs splices between them.
func gather(vec [][]byte, buf []byte, from int, refs []slabRef) [][]byte {
	for _, r := range refs {
		if r.off > from {
			vec = append(vec, buf[from:r.off])
		}
		vec = append(vec, r.data)
		from = r.off
	}
	if from < len(buf) {
		vec = append(vec, buf[from:])
	}
	return vec
}

// Recv implements Conn.
func (c *binaryConn) Recv() (Message, error) {
	c.decMu.Lock()
	defer c.decMu.Unlock()
	first := c.fr.frames == 0
	m, err := c.fr.readFrame()
	if err != nil {
		if c.server && first && errors.Is(err, ErrWireVersion) {
			// A binary peer stamping another version: answer with an Error
			// frame. The peer cannot decode its body, but its own header
			// check names our version, so both ends fail fast naming the
			// two versions. Best effort.
			text := fmt.Sprintf("%s: server speaks binary wire protocol version %d; %v", wireMismatchToken, wireVersion, err)
			if frame, ferr := appendFrame(nil, &Message{Type: MsgError, Error: text}); ferr == nil {
				c.encMu.Lock()
				_, _ = c.conn.Write(frame)
				c.encMu.Unlock()
			}
		}
		if first && isConnClosed(err) {
			return Message{}, fmt.Errorf("transport: recv: connection closed before any frame arrived; "+
				"the peer may not be a DSSP endpoint: %w", err)
		}
		return Message{}, fmt.Errorf("transport: recv: %w", err)
	}
	c.meter.Received(m.Type, c.fr.lastSize)
	c.meter.recvBody(c.fr.lastBody)
	return m, nil
}

// Close implements Conn. Body buffers released after it are dropped rather
// than pooled; a lane slot still leased stays readable until its release, and
// a placed push slot stays mapped until its own (PlaceBody).
func (c *binaryConn) Close() error {
	c.fr.pool.close()
	err := c.conn.Close()
	c.closeOnce.Do(func() {
		c.meter.connClosed(c.carrier)
		if c.carrier == carrierLane {
			c.closeLane()
		}
	})
	return err
}

// isConnClosed reports whether err is a connection teardown rather than a
// parse failure.
func isConnClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}
