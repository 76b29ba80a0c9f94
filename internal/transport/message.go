// Package transport defines the message protocol spoken between
// parameter-server workers and the server, and two interchangeable
// transports for it: an in-process transport built on channels (used by
// tests, examples and the single-process trainer) and a TCP transport (used
// by cmd/psserver and cmd/psworker). Both obey one payload-ownership
// contract, stated on Conn.
//
// The encoding is a length-delimited binary frame protocol
// (wire.go; byte-level specification in docs/PROTOCOL.md) whose tensor
// payloads travel as raw little-endian float32 slabs: a large slab is sent
// straight from the tensor's memory, and decoding aliases a receive buffer
// leased to the message (Message.Release hands it back for the next frame),
// so a weights reply is copied once per direction in user space and costs no
// allocation in the steady state. The in-process transport hands the same
// frames through a channel instead of a socket. A TCP peer that is not
// speaking the protocol at all, or stamps a version other than this build's,
// fails fast with an explicit error rather than hanging either side.
package transport

import (
	"fmt"
	"time"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

// MessageType identifies the purpose of a Message.
type MessageType int

// Protocol message types. The worker-side protocol of Algorithm 1 is:
// Register, Pull (initial weights), then repeatedly Push → wait for OK →
// Pull, and finally Done.
const (
	// MsgRegister announces a worker to the server.
	MsgRegister MessageType = iota + 1
	// MsgRegistered acknowledges registration.
	MsgRegistered
	// MsgPush carries a worker's gradients to the server.
	MsgPush
	// MsgOK releases a worker to start its next iteration.
	MsgOK
	// MsgPull requests the current global weights.
	MsgPull
	// MsgWeights carries the global weights and their version.
	MsgWeights
	// MsgDone tells the server a worker has finished training.
	MsgDone
	// MsgShutdown tells a worker (or the server) to stop.
	MsgShutdown
	// MsgError carries an error description.
	MsgError
	// MsgHeartbeat is a one-way liveness proof from a client whose
	// MsgRegistered named a Lease; the server refreshes the session's lease
	// and sends no reply.
	MsgHeartbeat
	// MsgRejoin re-registers a previously crashed or disconnected worker.
	// Version carries the last store version the worker saw, letting the
	// server account how far behind the returnee is.
	MsgRejoin
	// MsgLeave deregisters a worker gracefully: the server removes it from
	// synchronization accounting without treating the departure as a crash.
	MsgLeave
	// MsgClusterMap requests (worker→coordinator, no fields) or carries
	// (coordinator→worker) the server-group cluster map: which data server
	// owns which contiguous range of store shards.
	MsgClusterMap
	// MsgServerAnnounce registers a data server with the coordinator:
	// Worker is the index of the range it wants in the coordinator's layout,
	// and Servers[0] holds its advertised address alone. The OK reply's
	// Servers[0] is the range's owner entry — at the announcer's address, or
	// at the live owner's it now stands by for — with StoreShards and Total
	// the group's shard and tensor counts. The connection stays open as each
	// side's liveness watch of the other.
	MsgServerAnnounce
	// MsgPromote tells a standby, on its announce connection, that its
	// range has a new owner: Servers[0] is the owner's entry, the standby's
	// own when it is the one promoted.
	MsgPromote
)

// defined reports whether t is one of the message types above, the only ones
// a frame may carry.
func (t MessageType) defined() bool { return t >= MsgRegister && t <= MsgPromote }

// String returns the message type name.
func (t MessageType) String() string {
	switch t {
	case MsgRegister:
		return "Register"
	case MsgRegistered:
		return "Registered"
	case MsgPush:
		return "Push"
	case MsgOK:
		return "OK"
	case MsgPull:
		return "Pull"
	case MsgWeights:
		return "Weights"
	case MsgDone:
		return "Done"
	case MsgShutdown:
		return "Shutdown"
	case MsgError:
		return "Error"
	case MsgHeartbeat:
		return "Heartbeat"
	case MsgRejoin:
		return "Rejoin"
	case MsgLeave:
		return "Leave"
	case MsgClusterMap:
		return "ClusterMap"
	case MsgServerAnnounce:
		return "ServerAnnounce"
	case MsgPromote:
		return "Promote"
	default:
		return fmt.Sprintf("MessageType(%d)", int(t))
	}
}

// ServerEntry describes one data server in a cluster map: the address
// workers dial and the contiguous ranges of global store shards and global
// tensor indices it owns. Shard and tensor ranges are half-open [Lo, Hi).
type ServerEntry struct {
	// Addr is the address workers (and a standby's replicator) dial.
	Addr string
	// ShardLo and ShardHi bound the global store shards this server owns.
	ShardLo, ShardHi int
	// TensorLo and TensorHi bound the global tensor indices those shards
	// cover, so clients can split a full gradient list per owner without
	// recomputing the partition.
	TensorLo, TensorHi int
}

// WireTensor is the serializable form of a tensor.
type WireTensor struct {
	Shape []int
	Data  []float32
}

// PushEntry is the per-child metadata of one logical push folded into an
// aggregated relay push: which worker pushed, the store version its gradients
// were computed from, and its local iteration number. The relay sums the
// gradients coordinate-wise but forwards every child's entry, so the root's
// policy layer still observes each logical push for staleness accounting.
type PushEntry struct {
	// Worker is the pushing worker's ID.
	Worker int
	// Version is the store version the worker's gradients were computed
	// against (the flat push's Version field).
	Version int64
	// Iteration is the worker's local iteration number.
	Iteration int
}

// Message is the envelope exchanged between a worker and the server.
type Message struct {
	// Type identifies the message purpose.
	Type MessageType
	// Worker is the sender's worker ID (0-based) on worker→server messages,
	// and on MsgServerAnnounce the index of the range the data server wants.
	Worker int
	// Iteration is the worker's local iteration number on Push messages.
	Iteration int
	// Version is the parameter-store version: on Push it is the version the
	// worker's gradients were computed from (for staleness accounting), on
	// Weights it is the version of the delivered weights, on Rejoin the last
	// version the returning worker saw, on Registered the store's current
	// version (so a restarted worker knows where training resumed), and on a
	// replica's Pull the version of the complete reply it already holds,
	// which the server answers with one Unchanged frame while the store is
	// still there (0, omitted, never gates).
	Version int64
	// Tensors carries gradients (Push) or weights (Weights).
	Tensors []WireTensor
	// Total is, on a server-group MsgClusterMap reply and on the OK to a
	// MsgServerAnnounce, the model's total tensor count (the group layout).
	Total int
	// Codec, CodecTopK and CodecPull negotiate the gradient codec
	// (internal/compress): on MsgRegister they carry the worker's requested
	// configuration (compress.Auto adopts the server's), on MsgRegistered
	// the server's actual configuration, which both ends then speak for the
	// rest of the connection. On MsgPush and MsgWeights, Codec names the
	// codec that produced Packed; empty means Tensors is used uncompressed.
	Codec     string
	CodecTopK float64
	CodecPull bool
	// Packed carries codec-compressed tensors — gradients on MsgPush, weights
	// on MsgWeights — when a lossy codec is negotiated. Exactly one of
	// Tensors and Packed is populated on those messages.
	Packed []compress.Packed
	// StoreShards is the store shard count on MsgClusterMap: on a group's
	// map the group-wide count, with which the map's coverage is checked. The
	// OK to a MsgServerAnnounce carries the same count.
	StoreShards int
	// Error carries a description on MsgError messages.
	Error string
	// Unchanged marks a MsgWeights reply that carries no payload: the pull
	// named the version of the weights its sender already holds (Version, on
	// a replica's MsgPull) and the store is still at it, so the one frame
	// with Unchanged and that Version stands for the whole reply. Binary wire
	// tag 0x11.
	Unchanged bool
	// Servers carries cluster-map entries: the full map on a MsgClusterMap
	// reply, the announcer's address on MsgServerAnnounce, and the
	// range owner's on its OK reply and on MsgPromote. Binary wire tag 0x13.
	Servers []ServerEntry
	// MapVersion is the coordinator's monotonically increasing cluster-map
	// version, bumped whenever an entry is set or replaced. Binary wire tag
	// 0x14.
	MapVersion int64
	// Replica marks a MsgRegister as a server-to-server replica session
	// (pull-only, outside worker-slot accounting). Binary wire tag 0x15.
	Replica bool
	// Cluster marks a MsgRegister as coming from a cluster-mode worker that
	// pushes metadata-only tickets to a coordinator; a coordinator rejects
	// registrations without it (a plain worker would otherwise train against
	// a coordinator's store, which holds no tensors). Binary wire tag 0x16.
	Cluster bool
	// Relay marks a MsgRegister as an aggregation-relay trunk session — a
	// relay process that multiplexes the pushes, pulls and control messages
	// of up to fanout children over one upstream connection — and a
	// MsgClusterMap reply as an aggregation-tree layout rather than a server
	// group's shard map (a request's Relay means nothing). On a trunk
	// registration, Servers[0] optionally advertises the relay's child-facing
	// address and its fanout (as ShardHi), which the root folds into the tree
	// layout it serves to workers. Binary wire tag 0x17.
	Relay bool
	// PushEntries, on a trunk MsgPush, carries the per-child metadata of the
	// logical pushes summed into this aggregated gradient: one entry per
	// child, in relay arrival order. The payload (Tensors or Packed) is the
	// coordinate-wise sum of all listed children's gradients. Binary wire tag
	// 0x18.
	PushEntries []PushEntry
	// Prefetch, on MsgRegistered, offers the session prefetched pulls: only
	// a flat server offers them, and only to a worker's own session. On a
	// MsgPush of an offered session it asks for the next weights with the
	// release: the server answers with its OK and, right behind it on the
	// same session, the Weights reply a Pull would get, so the worker's next
	// Pull only receives. A flagged push on any other session is answered
	// with MsgError. Binary wire tag 0x1B; it follows every payload section,
	// so a push slot placed for it holds a push without it at the same
	// offsets.
	Prefetch bool
	// Lease, on MsgRegistered, is the lease the session is under: the server
	// evicts a session it hears nothing from for longer, and the client
	// heartbeats every quarter of it to stay registered. Zero: the server
	// leases nothing and the tag is omitted. Binary wire tag 0x1C, refused
	// unless positive.
	Lease time.Duration

	// lease is the pooled receive buffer a received message's payload
	// aliases, nil when the payload is the message's own allocation (small
	// frames) and on a message that was built rather than received. Copies of
	// the message share it.
	lease *bodyLease
}

// Release ends the message's lease on the receive buffer its payload aliases,
// handing the buffer back to the connection for a later frame: Tensors data,
// Packed payloads and everything FromWireOwned wrapped around them must not
// be read afterwards. It is idempotent across every copy of the message, a
// no-op on a nil message and on one that holds no lease, and optional — a
// message that is never released is garbage-collected with its buffer, which
// costs the connection an allocation for a later frame and nothing else.
func (m *Message) Release() {
	if m == nil || m.lease == nil {
		return
	}
	m.lease.release()
}

// copyPayloads deep-copies the payload sections that may alias a shared
// decode buffer, detaching the message from it.
func (m *Message) copyPayloads() {
	for i, t := range m.Tensors {
		data := make([]float32, len(t.Data))
		copy(data, t.Data)
		m.Tensors[i].Data = data
	}
	for i, p := range m.Packed {
		payload := make([]byte, len(p.Payload))
		copy(payload, p.Payload)
		m.Packed[i].Payload = payload
	}
}

// ToWireOwned converts tensors into their serializable form without copying
// the data: the wire tensors alias the inputs' storage. The caller must
// guarantee the tensors stay unmodified for as long as the result is read —
// for a message, until Send returns (Conn). Its production use is a relay
// wrapping the upstream reply it serves a child, which it holds until that
// Send has returned.
func ToWireOwned(ts []*tensor.Tensor) []WireTensor {
	out := make([]WireTensor, len(ts))
	for i, t := range ts {
		out[i] = WireTensor{Shape: t.Shape(), Data: t.Data()}
	}
	return out
}

// ToWireOwnedInto is ToWireOwned reusing dst's WireTensor headers, for
// callers that send the same parameter layout over and over (the client's
// dense push path, the server's pull replies): the wire tensors alias the inputs' storage, which must
// stay unmodified until Send returns and may be rewritten freely afterwards.
// The returned slice may alias dst.
func ToWireOwnedInto(dst []WireTensor, ts []*tensor.Tensor) []WireTensor {
	if cap(dst) < len(ts) {
		dst = make([]WireTensor, len(ts))
	}
	dst = dst[:len(ts)]
	for i, t := range ts {
		shape := dst[i].Shape
		if !t.ShapeEquals(shape) {
			shape = t.Shape()
		}
		dst[i] = WireTensor{Shape: shape, Data: t.Data()}
	}
	return dst
}

// FromWireOwned converts a received message's serialized tensors into tensor
// values that alias the wire data without copying. The tensors share the
// message's lease on its receive buffer: they are valid until the message is
// released (for good, when it never is), and whoever keeps them decides when
// that is.
func FromWireOwned(ws []WireTensor) ([]*tensor.Tensor, error) {
	out := make([]*tensor.Tensor, len(ws))
	for i, w := range ws {
		n := 1
		for _, d := range w.Shape {
			if d <= 0 {
				return nil, fmt.Errorf("transport: tensor %d has non-positive dimension %d", i, d)
			}
			n *= d
		}
		if n != len(w.Data) {
			return nil, fmt.Errorf("transport: tensor %d has %d values for shape %v", i, len(w.Data), w.Shape)
		}
		out[i] = tensor.FromSliceOwned(w.Data, w.Shape...)
	}
	return out, nil
}

// BodyPlacer is an optional Conn extension for senders that can say where a
// message's payload slabs will be sent from, so that they are computed there
// instead of copied there: the same-host lane's resident push slot, a run of
// its shared arena mapped at the sender (DESIGN.md §4b). Bytes on the wire do
// not change; only the copy goes.
type BodyPlacer interface {
	// PlaceBody reserves the connection's one slot for bodies laid out like
	// m's — the same fields present, the same tensor shapes, or the same
	// packed shapes, schemes and payload lengths — and returns, per tensor of
	// m (dense or packed, whichever m carries), the slot memory its float32
	// values or its payload bytes occupy in such a body. A later Send of a
	// message laid out like m whose slabs are those views, made while
	// SlotFree, writes the rest of the body around them and puts only the
	// header on the socket; any other Send is unaffected. ok is false when
	// there is no slot to give: not a lane, a body under the lane's
	// threshold, a message carrying both kinds of tensor or neither, a slot
	// already placed, or the mapping failed. The views may be written only
	// while SlotFree reports true, and they stay mapped — Close
	// notwithstanding — until release, which the caller calls once when it
	// is done with them.
	PlaceBody(m Message) (views [][]byte, release func(), ok bool)
	// SlotFree reports whether the receiver has released the last frame sent
	// from the slot (false once the connection is closed).
	SlotFree() bool
}

// Conn is a bidirectional, message-oriented connection between one worker
// and the server. Send is safe for concurrent use from multiple goroutines
// (a client's heartbeat goroutine sends alongside the protocol goroutine);
// Recv must not be called concurrently with itself.
//
// Every Conn keeps one payload-ownership contract, on a socket and in
// process alike. Send (and SendBatch) has encoded the message
// by the time it returns, successfully or not: nothing the message aliased —
// tensor data, packed payloads, the slices holding them — is read again by
// the transport or the peer, so the sender may rewrite or recycle it at once.
// The one exception is memory the connection itself handed out
// (BodyPlacer), whose own rule says when it may be written.
// A message Recv returns owns its payload: Tensors data and Packed payloads
// may alias a receive buffer leased to that message alone until Release hands
// it back, and a message that is never released is ordinary garbage.
type Conn interface {
	// Send transmits one message.
	Send(Message) error
	// SendBatch transmits several messages in order, with Send's delivery
	// and concurrency semantics; an empty batch is a no-op. A socket
	// assembles every frame before touching it, so a barrier release fanning
	// out to many queued messages costs one syscall instead of one per
	// message; the in-process pipe hands the frames over one by one.
	SendBatch([]Message) error
	// Recv blocks until the next message arrives or the connection closes.
	Recv() (Message, error)
	// Close releases the connection. Pending Recv calls return an error.
	Close() error
}

// Listener accepts incoming worker connections on the server side.
type Listener interface {
	// Accept blocks until a worker connects or the listener closes.
	Accept() (Conn, error)
	// Close stops accepting connections.
	Close() error
	// Addr returns the address workers should dial, when applicable.
	Addr() string
}
