package ps

import (
	"fmt"
	"time"
	"unsafe"

	"dssp/internal/compress"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// Client is one registered connection to a server, a relay or a data server,
// speaking the worker protocol of Algorithm 1 on it: register once
// (negotiating the gradient codec), pull the initial weights, then repeatedly
// push gradients, wait for OK, and pull fresh weights. A worker's
// ClusterClient drives one per link; replicas and relays use it directly
// (OpenReplica). A Client belongs to one goroutine; it is not safe for
// concurrent use.
type Client struct {
	conn   transport.Conn
	worker int

	// cfg is the compression configuration — the worker's request before
	// Register, the negotiated result after. comp carries the error-feedback
	// state of a lossy codec (nil for the identity codec).
	cfg  compress.Config
	comp *compress.Compressor

	// pushedBytes and pulledBytes approximate this client's traffic in wire
	// payload bytes (tensor data plus small per-tensor headers; frame
	// overhead excluded). They let callers compare codecs without packet
	// captures.
	pushedBytes int64
	pulledBytes int64

	// pushWire holds the dense push path's reusable wire tensors: the model
	// layout never changes between pushes, so the headers are recycled
	// instead of reallocated per iteration. Their data aliases the caller's
	// gradients for the duration of Send, which is done with whatever the
	// message aliases when it returns (transport.Conn).
	pushWire []transport.WireTensor
	// slot is the connection's resident push slot (PushSlot).
	slot pushSlot
	// held is the last dense Weights reply whose tensors Pull handed out
	// aliasing its leased receive buffer. The lease ends when the reply
	// superseding it has been decoded — "valid until the next Pull", with an
	// Unchanged reply extending it — and never earlier: the caller is still
	// reading the tensors.
	held transport.Message

	// cluster and replica stamp the registration with the session flags:
	// cluster-mode workers (accepted by coordinators), and read-only replica
	// sessions (standby replication streams, a relay's upstream cache).
	cluster bool
	replica bool
	// self is the entry a registration names its sender by (Servers), nil on
	// most clients: a relay trunk's tree-layout entry ({Addr: advertised,
	// ShardHi: fanout}), or on a replica a standby's own map entry, by which
	// its owner knows the session for a standby's. A trunk (isTrunk) adopts
	// the session key the root assigns, and its push slot has room for a full
	// fanout of PushEntries.
	self []transport.ServerEntry
	// reply and replyVersion are what the last reply returned; a replica
	// names replyVersion in its next Pull, an Unchanged reply returns reply
	// again, and a packed reply decodes into reply's tensors in place. Both
	// are dropped at registration.
	reply        []*tensor.Tensor
	replyVersion int64
	// offered says the server's Registered reply offered Prefetch on this
	// session (transport.Message.Prefetch). prefetched says the last push
	// asked for the next weights and was released: its Weights reply follows
	// the OK, and the next Pull sends no request, only receives it. Dropped
	// at registration.
	offered, prefetched bool
	// lease is the lease the last Registered reply put the session under, 0
	// for none; beats is the heartbeat goroutine keeping it (nil when none
	// runs).
	lease time.Duration
	beats *heartbeats
}

// NewClientCompressed wraps a connection for the given worker ID with an
// explicit compression configuration; the zero Config speaks the
// uncompressed protocol. Use compress.Auto as the codec to adopt whatever
// the server speaks; any other codec must match the server's exactly or
// Register fails.
func NewClientCompressed(conn transport.Conn, worker int, cfg compress.Config) (*Client, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(true); err != nil {
		return nil, err
	}
	return &Client{conn: conn, worker: worker, cfg: cfg}, nil
}

// Codec returns the gradient codec name: the requested one before Register,
// the negotiated one after.
func (c *Client) Codec() string { return c.cfg.Codec }

// Traffic returns the payload bytes this client pushed and pulled so far, in
// the units of pushedBytes: the same formula on every carrier, frame overhead
// excluded (the transport meters count whole frames, exactly).
func (c *Client) Traffic() (pushed, pulled int64) { return c.pushedBytes, c.pulledBytes }

// Register announces the worker to the server, negotiates the gradient
// codec, and waits for the acknowledgement. A worker whose codec conflicts
// with the server's is rejected with an error; a worker registering with
// compress.Auto adopts the server's configuration. A server that leases its
// sessions names the lease in the acknowledgement, and the client heartbeats
// every quarter of it on its own until Close.
func (c *Client) Register() error {
	return c.register(transport.MsgRegister, 0)
}

// rejoin re-registers a worker that previously crashed or lost its
// connection, carrying the last store version it saw. The server re-enters
// the worker into synchronization accounting (Policy.OnJoin) and replies
// like a registration; training resumes with the next Pull.
func (c *Client) rejoin(lastVersion int64) error {
	return c.register(transport.MsgRejoin, lastVersion)
}

// register implements Register and rejoin.
func (c *Client) register(msgType transport.MessageType, lastVersion int64) error {
	// Any registration talks to a fresh server-side session — possibly a
	// restarted server with different weights at the same version — so the
	// reply a replica would name is forgotten.
	c.reply, c.replyVersion, c.offered, c.prefetched = nil, 0, false, false
	err := c.conn.Send(transport.Message{
		Type:      msgType,
		Worker:    c.worker,
		Version:   lastVersion,
		Codec:     c.cfg.Codec,
		CodecTopK: c.cfg.TopK,
		CodecPull: c.cfg.Pull,
		Cluster:   c.cluster,
		Replica:   c.replica,
		Relay:     c.isTrunk(),
		Servers:   c.self,
	})
	if err != nil {
		return fmt.Errorf("ps: register worker %d: %w", c.worker, err)
	}
	msg, err := c.recv()
	if err != nil {
		return err
	}
	if msg.Type != transport.MsgRegistered {
		return fmt.Errorf("ps: worker %d expected Registered, got %v", c.worker, msg.Type)
	}
	negotiated := compress.Config{Codec: msg.Codec, TopK: msg.CodecTopK, Pull: msg.CodecPull}.Normalized()
	if c.cfg.Codec != compress.Auto && !c.cfg.Equal(negotiated) {
		// The server accepted us but speaks something else — a protocol bug,
		// but fail loudly rather than desynchronize.
		return fmt.Errorf("ps: worker %d negotiated codec %s but server speaks %s", c.worker, c.cfg, negotiated)
	}
	c.cfg = negotiated
	if c.isTrunk() {
		c.worker = msg.Worker
	}
	if c.cfg.Enabled() {
		if c.comp, err = compress.NewCompressor(c.cfg); err != nil {
			return fmt.Errorf("ps: worker %d: %w", c.worker, err)
		}
	}
	c.offered = msg.Prefetch
	c.stopHeartbeats()
	if c.lease = msg.Lease; c.lease > 0 {
		c.beats = startHeartbeats(c.conn, c.worker, c.lease/4)
	}
	return nil
}

// Pull retrieves the current global weights and their version: one Weights
// frame carrying every tensor, labelled with a store version no part of it
// is older than.
//
// A replica (OpenReplica) sends the version of the last reply it holds; while
// the store is still at that version the server answers with one
// payload-free Unchanged frame, and Pull returns the previous reply's tensors
// and version again, so a pull when nothing moved transfers nothing. A worker
// sends no version and always gets the full reply. After a push that asked
// for a prefetch (pushAndWait) the reply is already on its way behind the
// push's OK: Pull sends nothing and only receives it.
//
// The returned slice is reused by the next Pull, and the tensors are on
// lease until then: a dense reply's tensors alias the receive buffer it
// arrived in, which goes back to the connection once the next Pull has
// decoded the reply superseding it; an Unchanged reply returns the same
// tensors and extends their lease; and with a pull codec the next Pull
// decodes into them in place. Callers must treat slice and tensors as
// read-only, valid until the next Pull or Close, and copy what they keep. A
// worker's replica reads them in place for the iteration
// (Network.AdoptParams) and is detached before the client is closed; every
// other caller copies at once.
func (c *Client) Pull() ([]*tensor.Tensor, int64, error) {
	if err := c.requestPull(); err != nil {
		return nil, 0, err
	}
	return c.receivePull()
}

// requestPull is Pull's request half: it sends the Pull frame, or nothing
// after a push that prefetched. A ClusterClient sends every data link's
// before it receives any reply.
func (c *Client) requestPull() error {
	if c.prefetched {
		c.prefetched = false
		return nil
	}
	req := transport.Message{Type: transport.MsgPull, Worker: c.worker}
	if c.replica {
		req.Version = c.replyVersion
	}
	if err := c.conn.Send(req); err != nil {
		return fmt.Errorf("ps: pull request from worker %d: %w", c.worker, err)
	}
	return nil
}

// receivePull is Pull's receive half: exactly one follows every requestPull.
func (c *Client) receivePull() ([]*tensor.Tensor, int64, error) {
	msg, err := c.recv()
	if err != nil {
		return nil, 0, err
	}
	if msg.Type != transport.MsgWeights {
		return nil, 0, fmt.Errorf("ps: worker %d expected Weights, got %v", c.worker, msg.Type)
	}
	if msg.Unchanged {
		// Only a replica's request names a version: the one it holds.
		var named int64
		if c.replica {
			named = c.replyVersion
		}
		if named == 0 || msg.Version != named {
			return nil, 0, fmt.Errorf("ps: worker %d received Unchanged at version %d for a pull naming %d",
				c.worker, msg.Version, named)
		}
		return c.reply, c.replyVersion, nil
	}
	params, err := c.decodeWeights(msg)
	if err != nil {
		// A failed decode names no version a later pull could be gated on,
		// and a packed one may have stopped half way through rewriting
		// reply's tensors.
		c.reply, c.replyVersion = nil, 0
		return nil, 0, err
	}
	c.reply, c.replyVersion = params, msg.Version
	return params, msg.Version, nil
}

// decodeWeights extracts the tensors of a Weights reply and accounts the
// pulled bytes. A packed reply is unpacked straight from the message's
// payload (its leased receive buffer) into the previous packed reply's
// tensors where the shapes still match, and the buffer is handed back at
// once: nothing aliases it after the decode. A dense reply's tensors alias
// the message's buffer instead of being copied, so the reply is held; either
// way the reply held before is released once the new one has decoded.
func (c *Client) decodeWeights(msg transport.Message) ([]*tensor.Tensor, error) {
	if msg.Codec != "" || len(msg.Packed) > 0 {
		defer msg.Release()
		if msg.Codec != c.cfg.Codec {
			return nil, fmt.Errorf("ps: worker %d received %s-compressed weights but negotiated %s",
				c.worker, msg.Codec, c.cfg)
		}
		for _, p := range msg.Packed {
			c.pulledBytes += int64(p.WireSize())
		}
		prev := c.reply
		if c.held.Type != 0 {
			// The last reply was dense: its tensors are views of a receive
			// buffer, not this client's to write.
			prev = nil
		}
		ts, err := compress.DecompressAllReuse(msg.Packed, prev)
		if err == nil {
			c.hold(transport.Message{})
		}
		return ts, err
	}
	c.pulledBytes += wireTensorBytes(msg.Tensors)
	ts, err := transport.FromWireOwned(msg.Tensors)
	if err != nil {
		msg.Release()
		return nil, err
	}
	c.hold(msg)
	return ts, nil
}

// hold makes msg the held reply, ending the lease of the one it supersedes.
func (c *Client) hold(msg transport.Message) {
	c.held.Release()
	c.held = msg
}

// PushAndWait sends the worker's gradients (computed against baseVersion of
// the global weights) and blocks until the server sends OK, i.e. until the
// synchronization policy allows the worker to start its next iteration.
// Under a lossy codec the gradients are compressed with error feedback; the
// caller's tensors are never mutated, and never read after the send inside
// the call returns, so the caller may push its live gradient buffers and
// overwrite them next iteration.
func (c *Client) PushAndWait(grads []*tensor.Tensor, baseVersion int64, iteration int) error {
	return c.pushAndWait(grads, nil, baseVersion, iteration, false)
}

// pushAndWait is PushAndWait for a worker whose next call is Pull when next
// is set. If registration offered Prefetch, the push then asks for the next
// weights behind the OK (transport.Message.Prefetch), and that Pull only
// receives them.
func (c *Client) pushAndWait(grads []*tensor.Tensor, factors []tensor.Factors, baseVersion int64, iteration int, next bool) error {
	prefetch := next && c.offered
	if err := c.push(grads, factors, baseVersion, iteration, nil, prefetch); err != nil {
		return err
	}
	if err := c.waitOK(); err != nil {
		return err
	}
	c.prefetched = prefetch
	return nil
}

// pushAsync sends the worker's gradients without waiting for the release.
// It exists for a ClusterClient, which fans a fragment out to every data
// server before collecting the OKs (waitOK, once per pushAsync, in order):
// the fragments travel in parallel while each link stays lock-step. A nil
// or empty grads sends a metadata-only push (the coordinator's ticket).
func (c *Client) pushAsync(grads []*tensor.Tensor, factors []tensor.Factors, baseVersion int64, iteration int) error {
	return c.push(grads, factors, baseVersion, iteration, nil, false)
}

// push sends one push carrying entries: none for a worker's own, the summed
// children's for a relay trunk's partial (DESIGN.md §11). factors is
// ClusterClient.Push's, for an fp16 link only.
func (c *Client) push(grads []*tensor.Tensor, factors []tensor.Factors, baseVersion int64, iteration int, entries []transport.PushEntry, prefetch bool) error {
	msg := transport.Message{
		Type:        transport.MsgPush,
		Worker:      c.worker,
		Iteration:   iteration,
		Version:     baseVersion,
		PushEntries: entries,
		Prefetch:    prefetch,
	}
	if c.comp != nil {
		msg.Codec = c.cfg.Codec
		// The push slot's pages or the compressor's own buffers: Send is
		// done with either before the next push overwrites them.
		msg.Packed = c.compress(grads, factors)
		for _, p := range msg.Packed {
			c.pushedBytes += int64(p.WireSize())
		}
	} else {
		// Send reads the gradients and is done with them: no copy.
		c.pushWire = transport.ToWireOwnedInto(c.pushWire, grads)
		msg.Tensors = c.pushWire
		c.pushedBytes += wireTensorBytes(msg.Tensors)
	}
	if err := c.conn.Send(msg); err != nil {
		return fmt.Errorf("ps: push from worker %d: %w", c.worker, err)
	}
	return nil
}

// compress encodes a packed push: into the connection's push slot when it
// has one laid out for the push and it is free, so that Send copies no
// payload byte, and into the compressor's own buffers otherwise — the first
// push among them, whose layout the slot is placed for. The value codecs'
// payload sizes follow from the shapes; top-k's do not, and a trunk's
// partials carry entries, so neither asks for a slot.
func (c *Client) compress(grads []*tensor.Tensor, factors []tensor.Factors) []compress.Packed {
	if payloads := c.slot.takePacked(len(grads)); payloads != nil {
		return c.comp.CompressInto(payloads, grads, factors)
	}
	packed := c.comp.CompressInto(nil, grads, factors)
	if !c.slot.tried && c.cfg.Codec != compress.TopK && !c.isTrunk() {
		c.slot.place(c.conn, transport.Message{Type: transport.MsgPush, Worker: c.worker, Codec: c.cfg.Codec, Packed: packed})
	}
	return packed
}

// PushSlot returns tensors shaped like grads whose storage is where the
// values of this worker's next dense push go on the wire, when the
// connection has such a place and it is free: gradients computed there
// (nn.Network.AdoptGrads) are pushed by PushAndWait without a copy. nil when
// there is none — not a same-host lane, a push too small to leave the socket,
// a codec, whose push is encoded into the slot instead of computed there
// (compress) — or while the receiver still holds the last push sent from it;
// gradients computed anywhere else are pushed exactly as before. Ask before
// every pass: the tensors may only be written while the slot is free, and not
// after Close.
func (c *Client) PushSlot(grads []*tensor.Tensor) []*tensor.Tensor {
	if c.comp != nil {
		return nil
	}
	if !c.slot.tried {
		tmpl := transport.Message{Type: transport.MsgPush, Worker: c.worker, Tensors: transport.ToWireOwned(grads)}
		if c.isTrunk() {
			// Room for a full fanout's entries, which follow the tensors and
			// so move no slab.
			tmpl.PushEntries = make([]transport.PushEntry, c.self[0].ShardHi)
		}
		if c.slot.place(c.conn, tmpl) {
			c.slot.views = make([]*tensor.Tensor, len(grads))
			for i, p := range c.slot.slabs {
				f := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(p))), len(p)/4)
				c.slot.views[i] = tensor.FromSliceOwned(f, grads[i].Shape()...)
			}
		}
	}
	return c.slot.take(grads)
}

// pushSlot is a connection's resident push slot as a pusher holds it
// (transport.BodyPlacer): the slot's memory per slab — a dense push's tensor
// values, or a packed push's payloads — and, for a dense pusher, tensors over
// it.
type pushSlot struct {
	placer  transport.BodyPlacer
	slabs   [][]byte
	views   []*tensor.Tensor
	release func()
	// tried: placed, refused or ended — placement is asked for once.
	tried bool
}

// place asks conn for a slot laid out for pushes like tmpl, and reports
// whether it got one. The encoder omits zero fields, so the slot is placed
// for a nonzero Iteration and Version: a push at either 0 lays its body out
// differently and takes the copy path. It is placed for a flagged Prefetch,
// which follows every slab: a push with the flag and one without both fit
// it with their slabs in place.
func (s *pushSlot) place(conn transport.Conn, tmpl transport.Message) bool {
	s.tried = true
	placer, ok := conn.(transport.BodyPlacer)
	if !ok {
		return false
	}
	tmpl.Iteration, tmpl.Version, tmpl.Prefetch = 1, 1, true
	slabs, release, ok := placer.PlaceBody(tmpl)
	if !ok {
		return false
	}
	s.placer, s.slabs, s.release = placer, slabs, release
	return true
}

// take returns the slot's tensors if a dense push of grads' shapes can be
// sent from it now, and nil otherwise.
func (s *pushSlot) take(grads []*tensor.Tensor) []*tensor.Tensor {
	if s.views == nil || !sameLayout(s.views, grads) || !s.placer.SlotFree() {
		return nil
	}
	return s.views
}

// takePacked returns the slot's slabs, the payloads of a packed push of n
// tensors, if one can be encoded into them now, and nil otherwise.
func (s *pushSlot) takePacked(n int) [][]byte {
	if s.slabs == nil || s.views != nil || len(s.slabs) != n || !s.placer.SlotFree() {
		return nil
	}
	return s.slabs
}

// end unmaps the slot for good: its memory must not be touched afterwards.
func (s *pushSlot) end() {
	if s.release != nil {
		s.release()
	}
	*s = pushSlot{tried: true}
}

// waitOK blocks until the server releases the worker's outstanding push.
// Exactly one waitOK must follow every pushAsync.
func (c *Client) waitOK() error {
	reply, err := c.recv()
	if err != nil {
		return err
	}
	if reply.Type != transport.MsgOK {
		return fmt.Errorf("ps: worker %d expected OK, got %v", c.worker, reply.Type)
	}
	return nil
}

// Done tells the server the worker has finished training.
func (c *Client) Done() error {
	if err := c.conn.Send(transport.Message{Type: transport.MsgDone, Worker: c.worker}); err != nil {
		return fmt.Errorf("ps: done from worker %d: %w", c.worker, err)
	}
	return nil
}

// heartbeats is a registered client's heartbeat goroutine: a Heartbeat frame
// every interval, from registration under a lease until stopped. Heartbeats
// are one-way — the server refreshes the session lease and never replies —
// so they interleave safely with the lock-step request/reply protocol
// (Conn.Send is safe for concurrent use). A failed send ends the goroutine:
// the connection is gone, and the protocol loop is about to find out.
type heartbeats struct {
	stop, done chan struct{}
}

// startHeartbeats sends worker's heartbeats on conn every interval, the
// quarter of the lease the server's monitor sweeps at.
func startHeartbeats(conn transport.Conn, worker int, interval time.Duration) *heartbeats {
	h := &heartbeats{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-ticker.C:
				if conn.Send(transport.Message{Type: transport.MsgHeartbeat, Worker: worker}) != nil {
					return
				}
			}
		}
	}()
	return h
}

// stopHeartbeats ends the heartbeat goroutine, if one runs, and returns once
// it has: no heartbeat is sent afterwards. Close calls it after closing the
// connection, which unblocks a heartbeat caught in Send.
func (c *Client) stopHeartbeats() {
	if c.beats != nil {
		close(c.beats.stop)
		<-c.beats.done
		c.beats = nil
	}
}

// Close releases the underlying connection, stops the heartbeats and ends
// the pull lease and the push slot: the tensors the last Pull handed out must
// not be read afterwards, nor those PushSlot handed out touched. The leases
// end here rather than whenever the garbage collector finds the client, so
// that a reader outliving them fails the same way every time.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.stopHeartbeats()
	c.endLeases()
	return err
}

// endLeases ends the lease on the dense reply Pull still holds, and the push
// slot.
func (c *Client) endLeases() {
	c.hold(transport.Message{})
	c.slot.end()
}

// isTrunk reports whether c is a relay's trunk, which names its tree-layout
// entry (self) where a replica names a standby's map entry.
func (c *Client) isTrunk() bool { return c.self != nil && !c.replica }

// recv reads the next message, converting a server-reported error into a
// RemoteError: a decision, which a registration does not retry (Connect).
func (c *Client) recv() (transport.Message, error) {
	msg, err := c.conn.Recv()
	if err != nil {
		return transport.Message{}, fmt.Errorf("ps: worker %d receive: %w", c.worker, err)
	}
	if msg.Type == transport.MsgError {
		return transport.Message{}, &RemoteError{Msg: "ps: server error: " + msg.Error}
	}
	return msg, nil
}

// wireTensorBytes approximates the wire payload of dense tensors: 4 bytes
// per value plus a small per-tensor header, mirroring compress.Packed's
// WireSize accounting.
func wireTensorBytes(ws []transport.WireTensor) int64 {
	var n int64
	for _, w := range ws {
		n += int64(4*len(w.Data) + 4*len(w.Shape) + 8)
	}
	return n
}
