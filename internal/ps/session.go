package ps

import (
	"fmt"
	"sync"
	"time"

	"dssp/internal/compress"
	"dssp/internal/obs"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// sessionKind says what a registered connection is to the cohort. Everything
// the server does differently per kind is answered here, beside the type:
//
//	kind     holds slot  may push             pushes pipeline  Done/Leave speak for  death sweeps
//	worker   its own     one entry: itself    no (lock-step)   itself                its slot
//	replica  none        no (read-only)       —                nobody                nothing
//	trunk    none        one entry per child  yes              the child they name   every child it routes
//
// A trunk (an aggregation relay's upstream session) and a replica (a standby's
// read-only observer) live under private negative keys outside the worker
// range, invisible to the policy, the guard and completion accounting. The
// slots a session speaks for are the ones Server.carriers gives it: a
// worker's own, a trunk's routed children, none for a replica.
type sessionKind uint8

const (
	kindWorker sessionKind = iota
	kindReplica
	kindTrunk
)

// holdsSlot reports whether the session occupies worker slot session.worker.
func (k sessionKind) holdsSlot() bool { return k == kindWorker }

// mayPush reports whether the kind may send gradients at all.
func (k sessionKind) mayPush() bool { return k != kindReplica }

// multiplexes reports whether the session carries other workers' traffic:
// its pushes are partials of several entries and pipeline (partial n+1 may
// arrive while partial n still sits on the shard queues), its Done and Leave
// frames name a routed child, and the replies it receives are tagged with the
// child they are for.
func (k sessionKind) multiplexes() bool { return k == kindTrunk }

// session is one live registration: the connection it arrived on, the outbox
// its writer goroutine drains, and the lease state that keeps it alive. A
// session key has at most one current session; re-registration supersedes the
// previous session instead of silently overwriting its outbox (which used to
// strand the old writer goroutine until server stop).
type session struct {
	kind sessionKind
	// worker is the session's key: the slot a worker holds, a private
	// negative key for replicas and trunks.
	worker int
	conn   transport.Conn
	// rejoined reports whether the session re-entered via MsgRejoin; backup,
	// that it is a standby's replica, whose registration named the standby
	// (Servers).
	rejoined, backup bool
	outbox           chan outMsg

	// gone is closed exactly once when the session ends — deregistered,
	// superseded, lease-expired, or server-stopped. The writer goroutine and
	// any enqueue blocked on a full outbox unblock through it.
	gone     chan struct{}
	goneOnce sync.Once

	mu       sync.Mutex
	lastSeen time.Time

	// finished is a relay's note that the child reported Done, guarded by
	// Relay.mu. (The root counts completion per slot, which outlives sessions.)
	finished bool

	// The fields below are push-handling scratch, touched only by the
	// session's connection goroutine. decodeScratch holds the gradient tensors
	// a compressed push decompresses into, reused across pushes: the model
	// layout is fixed for a session's lifetime, and the protocol is lock-step
	// per worker, so the previous push's tensors are free again (decoded,
	// applied, released) by the time the next push arrives. self is the one
	// entry a worker's own push stands for, marks the per-entry state of the
	// push in hand — kept here so a push allocates neither.
	decodeScratch []*tensor.Tensor
	self          [1]transport.PushEntry
	marks         []entryMark
}

// entryMark is what push handling learns about one entry of a push: its
// sampled lifecycle trace (nil for most), whether it was void (its slot no
// longer rides this session), and the admit epoch of the slot's tenure the
// push belongs to.
type entryMark struct {
	tr    *obs.PushTrace
	void  bool
	epoch uint64
}

// newSession builds a session for conn, not yet installed in the table.
func newSession(kind sessionKind, key int, conn transport.Conn, rejoined bool, now time.Time) *session {
	return &session{
		kind:     kind,
		worker:   key,
		conn:     conn,
		rejoined: rejoined,
		// Deep enough for a pull reply plus the releases landing behind it
		// without blocking the sequencer.
		outbox:   make(chan outMsg, 64),
		gone:     make(chan struct{}),
		lastSeen: now,
	}
}

// partial reads a MsgPush on this session as the partial it is: the logical
// pushes it stands for — a trunk's frame lists them, a worker's own push is a
// partial of one — and the decompression scratch it may reuse: the session's
// own for a lock-step worker, none for a trunk, whose previous partial may
// still be queued on a shard applier.
func (se *session) partial(msg transport.Message) ([]transport.PushEntry, *[]*tensor.Tensor) {
	if se.kind.multiplexes() {
		return msg.PushEntries, nil
	}
	se.self[0] = transport.PushEntry{Worker: se.worker, Version: msg.Version, Iteration: msg.Iteration}
	return se.self[:], &se.decodeScratch
}

// outMsg is one queued outbound message, plus — for a pull reply, whose
// payload aliases store generations' tensors or packed-cache buffers — the
// pins holding those generations. The writer releases them once Send has
// returned (the transport is done with the payload: transport.Conn); every
// path that drops the message instead releases them on the spot. pins is nil
// for every other message.
type outMsg struct {
	msg  transport.Message
	pins *replyPins
}

// replyPins is what a queued pull reply holds: the generation it read of
// every store shard, pinned, and the reply's tensor headers — dense (params,
// wire) or packed — whose data aliases them. Pooled, so that a steady-state
// pull allocates neither.
type replyPins struct {
	pins   []*genPin
	params []*tensor.Tensor
	wire   []transport.WireTensor
	packed []compress.Packed
}

var replyPinsPool = sync.Pool{New: func() any { return new(replyPins) }}

// release unpins every generation p holds and returns p to the pool, its
// references into them dropped; the wire headers keep their shapes for the
// next reply (transport.ToWireOwnedInto). Releasing nil is a no-op.
func (p *replyPins) release() {
	if p == nil {
		return
	}
	for _, g := range p.pins {
		g.release()
	}
	clear(p.pins)
	clear(p.params)
	clear(p.packed)
	for i := range p.wire {
		p.wire[i].Data = nil
	}
	p.pins, p.params, p.packed = p.pins[:0], p.params[:0], p.packed[:0]
	replyPinsPool.Put(p)
}

// end marks the session over, releasing its writer and any blocked enqueue.
func (se *session) end() { se.goneOnce.Do(func() { close(se.gone) }) }

// touch refreshes the session lease. Any message from the worker counts as
// liveness — a worker busy computing a large batch proves itself through
// heartbeats, one blocked at a barrier through the push that got it there.
func (se *session) touch(now time.Time) {
	se.mu.Lock()
	se.lastSeen = now
	se.mu.Unlock()
}

// seen returns the time of the last message from the worker.
func (se *session) seen() time.Time {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.lastSeen
}

// sessionTable tracks the current session of every worker slot.
type sessionTable struct {
	mu       sync.Mutex
	sessions map[int]*session
}

// newSessionTable returns an empty table.
func newSessionTable() *sessionTable {
	return &sessionTable{sessions: make(map[int]*session)}
}

// replace makes sess the current session under key — or leaves the key with
// none when sess is nil — and returns the session it superseded (nil if
// none). The caller ends the old session outside the table lock.
func (t *sessionTable) replace(key int, sess *session) (old *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old = t.sessions[key]
	if sess == nil {
		delete(t.sessions, key)
	} else {
		t.sessions[key] = sess
	}
	return old
}

// drop removes sess if it is still the worker's current session and reports
// whether it was — a superseded session returns false, so a stale
// connection's death never deregisters its successor.
func (t *sessionTable) drop(sess *session) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sessions[sess.worker] != sess {
		return false
	}
	delete(t.sessions, sess.worker)
	return true
}

// get returns the worker's current session, or nil.
func (t *sessionTable) get(worker int) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions[worker]
}

// every reports whether ok holds for each live session. ok runs under the
// table's lock and must not call back into the table.
func (t *sessionTable) every(ok func(*session) bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, se := range t.sessions {
		if !ok(se) {
			return false
		}
	}
	return true
}

// list returns a snapshot of all live sessions.
func (t *sessionTable) list() []*session {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*session, 0, len(t.sessions))
	for _, se := range t.sessions {
		out = append(out, se)
	}
	return out
}

// tier is what a process does with its sessions' traffic: everything that
// differs between the root server and an aggregation relay. The session layer
// owns the mechanics — accept, receive, lease, supersession, dispatch, the
// outbox and its writer, the sweeps — and calls the tier for the rest:
//
//	event      root (Server)                        relay (Relay)
//	register   admit the slot, or the trunk/replica forward upstream, await the root's answer
//	push       ticket per entry, enqueue the apply  fold into the partial, flush when complete
//	pull       reply with every store shard         refresh the upstream cache, serve from it
//	done       count the slot finished              shrink the flush condition, forward
//	leave      depart the slot (or a routed child)  depart the child
//	departed   policy OnLeave, release the peers    flush what the child was in, forward Leave
//	serve      share a new generation region        pass the root's region on
type tier interface {
	// handleRegister services MsgRegister/MsgRejoin on conn, whose current
	// session is sess (nil on a fresh connection), and returns the session the
	// connection carries from now on; nil closes the connection.
	handleRegister(conn transport.Conn, sess *session, msg transport.Message) *session
	handlePush(sess *session, msg transport.Message)
	handlePull(sess *session, msg transport.Message)
	handleDone(sess *session, msg transport.Message)
	// handleLeave services MsgLeave and reports whether the session ended
	// with it.
	handleLeave(sess *session, msg transport.Message) (ended bool)
	// departed is told that sess, until now current, is out of the table and
	// ended — its connection died, it left, or its lease expired.
	departed(sess *session)
	// share is handed a listener that can offer its same-host connections a
	// generation region (transport.RegionHost), before it accepts any.
	share(h transport.RegionHost)
}

// sessionLayer is the membership mechanics the root and a relay share: one
// accept loop, one per-connection receive loop and dispatch, one session
// table with its supersession rule, one outbox writer, one lease sweep and
// one stop sweep. The tier embedding it supplies what a register, push, pull,
// done, leave and death mean there.
type sessionLayer struct {
	tier tier
	// control holds the tier's handlers for frames that are not session
	// traffic and are answered on the bare connection (map fetches, group
	// announcements).
	control  map[transport.MessageType]func(transport.Conn, transport.Message)
	clock    func() time.Time
	sessions *sessionTable
	stopped  chan struct{}
	wg       sync.WaitGroup

	// conns is every connection the accept loop handed out and that is still
	// being served, so that shutdown closes them all — sessions, map fetches
	// in flight, and peers parked on the connection as their liveness watch
	// of this process. Nil once shut down.
	connMu sync.Mutex
	conns  map[transport.Conn]struct{}
}

// bind readies the layer to serve t's sessions; the owner calls it once,
// before anything else.
func (l *sessionLayer) bind(t tier, clock func() time.Time, control map[transport.MessageType]func(transport.Conn, transport.Message)) {
	l.tier = t
	l.control = control
	l.clock = clock
	l.sessions = newSessionTable()
	l.stopped = make(chan struct{})
	l.conns = make(map[transport.Conn]struct{})
}

// Serve accepts connections from the listener until Stop is called or the
// listener fails. It blocks; run it in its own goroutine when the caller also
// drives workers.
func (l *sessionLayer) Serve(ln transport.Listener) error {
	if h, ok := ln.(transport.RegionHost); ok {
		l.tier.share(h)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-l.stopped:
				return nil
			default:
				return fmt.Errorf("ps: accept: %w", err)
			}
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.handleConn(conn)
		}()
	}
}

// handleConn reads messages from one connection and services them on this
// goroutine. The worker protocol is lock-step (one outstanding request per
// worker), so handling in-line costs no pipeline depth, while requests from
// different workers run fully in parallel.
func (l *sessionLayer) handleConn(conn transport.Conn) {
	defer conn.Close()
	if !l.track(conn) {
		return
	}
	defer l.untrack(conn)
	var sess *session
	for {
		msg, err := conn.Recv()
		if err != nil {
			// A dead connection is a departure: deregister the session and
			// tell the tier, so peers blocked on this worker are released
			// instead of deadlocking.
			if sess != nil {
				l.leave(sess)
			}
			return
		}
		if sess != nil {
			if l.sessions.get(sess.worker) != sess {
				// The session was superseded by a new registration or evicted
				// by the lease monitor while this request was in flight. Tell
				// the worker to rejoin rather than leave it waiting on
				// replies that will never come.
				_ = conn.Send(transport.Message{
					Type:  transport.MsgError,
					Error: fmt.Sprintf("session for worker %d expired; rejoin", sess.worker),
				})
				return
			}
			sess.touch(l.clock())
		}
		switch msg.Type {
		case transport.MsgRegister, transport.MsgRejoin:
			if sess = l.tier.handleRegister(conn, sess, msg); sess == nil {
				return
			}

		case transport.MsgHeartbeat:
			// Liveness only; touch above already refreshed the lease.

		case transport.MsgPush:
			if sess == nil {
				return
			}
			l.tier.handlePush(sess, msg)

		case transport.MsgPull:
			if sess == nil {
				return
			}
			l.tier.handlePull(sess, msg)

		case transport.MsgDone:
			if sess == nil {
				return
			}
			l.tier.handleDone(sess, msg)

		case transport.MsgLeave:
			if sess == nil || l.tier.handleLeave(sess, msg) {
				return
			}

		case transport.MsgShutdown:
			return

		default:
			// Not session traffic: the tier's to answer on the bare
			// connection. A control type this tier does not serve is
			// ignored; a type outside the protocol never got past decode.
			if handle := l.control[msg.Type]; handle != nil {
				handle(conn, msg)
			}
		}
	}
}

// track enters conn in the set shutdown closes; it reports false, entering
// nothing, when the layer has already shut down.
func (l *sessionLayer) track(conn transport.Conn) bool {
	l.connMu.Lock()
	defer l.connMu.Unlock()
	if l.conns == nil {
		return false
	}
	l.conns[conn] = struct{}{}
	return true
}

// untrack strikes a connection that ended on its own.
func (l *sessionLayer) untrack(conn transport.Conn) {
	l.connMu.Lock()
	delete(l.conns, conn)
	l.connMu.Unlock()
}

// supersede makes sess the current session under key — or leaves the key with
// none when sess is nil — and ends the session it replaces: a zombie
// connection, or a worker that reconnected or re-parented before its old link
// died. The old session's connection is closed, so its reader unblocks and
// its writer exits now rather than at stop; it is already out of the table, so
// its death departs nobody.
func (l *sessionLayer) supersede(key int, sess *session) {
	if old := l.sessions.replace(key, sess); old != nil {
		old.end()
		_ = old.conn.Close()
	}
}

// open starts the writer of a session just installed in the table and
// reports whether it did. A registration racing shutdown (the listener stays
// open while a stopping server writes its final checkpoint) is turned away
// instead — it would wait forever on a writer that exited with the layer.
// Whichever of shutdown's sweep and this check runs second sees the session
// and ends it.
func (l *sessionLayer) open(sess *session) bool {
	select {
	case <-l.stopped:
		l.sessions.drop(sess)
		sess.end()
		return false
	default:
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.writer(sess)
	}()
	return true
}

// leave deregisters a session, if it is still current, and tells the tier it
// departed. A superseded session is not current, so a stale connection's
// death never departs its successor.
func (l *sessionLayer) leave(sess *session) {
	if !l.sessions.drop(sess) {
		return
	}
	sess.end()
	l.tier.departed(sess)
}

// leaseMonitor evicts sessions whose lease expired: a worker that stops
// heartbeating (hung, partitioned, SIGKILLed without the TCP stack noticing)
// departs exactly like one whose connection died. swept, when non-nil, runs
// after every sweep.
func (l *sessionLayer) leaseMonitor(lease time.Duration, swept func()) {
	defer l.wg.Done()
	tick := lease / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-l.stopped:
			return
		case <-ticker.C:
			now := l.clock()
			for _, sess := range l.sessions.list() {
				if now.Sub(sess.seen()) > lease {
					l.leave(sess)
					_ = sess.conn.Close()
				}
			}
			if swept != nil {
				swept()
			}
		}
	}
}

// shutdown stops the layer: every live session ends and every connection is
// closed — a worker blocked on a release sees the failure immediately and can
// reconnect to a successor or re-parent instead of hanging on a half-dead
// socket. Call once.
func (l *sessionLayer) shutdown() {
	close(l.stopped)
	for _, sess := range l.sessions.list() {
		sess.end()
	}
	l.connMu.Lock()
	for conn := range l.conns {
		_ = conn.Close()
	}
	l.conns = nil
	l.connMu.Unlock()
}

// writerBatchMax bounds how many queued outbox messages one write coalesces:
// enough to cover a pull reply plus the releases queued behind it, small
// enough that a batch's assembled frames stay cache- and buffer-friendly.
const writerBatchMax = 32

// writer drains one worker's outbox onto its connection until the session
// ends or the layer stops. When several messages are queued — a pull reply
// and a barrier release landing behind it, a trunk's children's releases —
// everything waiting goes out in one SendBatch, on a socket one write/flush
// instead of one per message.
func (l *sessionLayer) writer(sess *session) {
	// On exit, release generation references stranded in the outbox: the
	// payloads will never be serialized, and the pins would otherwise keep
	// those buffers out of the applier's reuse pool.
	defer func() {
		for {
			select {
			case om := <-sess.outbox:
				om.pins.release()
			default:
				return
			}
		}
	}()
	var batch []outMsg
	var wire []transport.Message
	for {
		select {
		case om := <-sess.outbox:
			batch = append(batch[:0], om)
			for len(batch) < writerBatchMax {
				select {
				case more := <-sess.outbox:
					batch = append(batch, more)
					continue
				default:
				}
				break
			}
			wire = wire[:0]
			for i := range batch {
				wire = append(wire, batch[i].msg)
			}
			err := sess.conn.SendBatch(wire)
			// Release the generation pins (the transport is done with the
			// payloads whether or not the send succeeded) and drop the
			// payload references: a pull reply aliases the store's published
			// snapshots, and a shorter next batch would otherwise pin the
			// tail entries (a model's worth of old tensors) for the
			// session's lifetime.
			for i := range batch {
				batch[i].pins.release()
				batch[i] = outMsg{}
			}
			for i := range wire {
				wire[i] = transport.Message{}
			}
			if err != nil {
				return
			}
		case <-sess.gone:
			return
		case <-l.stopped:
			return
		}
	}
}

// enqueueSession places a message on a specific session's outbox. It never
// blocks indefinitely: a session that ends or a layer that stops unblocks
// the send.
func (l *sessionLayer) enqueueSession(sess *session, msg transport.Message) {
	l.enqueueSessionRef(sess, msg, nil)
}

// enqueueSessionRef is enqueueSession with a pull reply's pins attached;
// dropping the message (session gone, layer stopped) releases them.
func (l *sessionLayer) enqueueSessionRef(sess *session, msg transport.Message, pins *replyPins) {
	select {
	case sess.outbox <- outMsg{msg: msg, pins: pins}:
	case <-sess.gone:
		pins.release()
	case <-l.stopped:
		pins.release()
	}
}
