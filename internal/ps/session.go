package ps

import (
	"sync"
	"time"

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
// A trunk (an aggregation relay's upstream session) and a replica (a backup's
// read-only observer) live under private negative keys outside the worker
// range, invisible to the policy, the guard and completion accounting; the
// slots a trunk speaks for are the ones Server.routes maps to it.
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
	// rejoined reports whether the session re-entered via MsgRejoin.
	rejoined bool
	// deltaPull reports that this session negotiated version-gated delta
	// pulls at registration: its MsgPull requests may carry PullVersions and
	// its weight chunks may come back Unchanged. Set before the session is
	// installed, immutable afterwards.
	deltaPull bool
	// serializes reports that the connection is a transport.SerializingSender:
	// payloads are fully encoded inside Send/SendBatch, so pull replies may
	// pin store generations with a bounded reference (released by the writer
	// after the send) instead of escaping them from buffer reuse forever.
	serializes bool
	outbox     chan outMsg

	// gone is closed exactly once when the session ends — deregistered,
	// superseded, lease-expired, or server-stopped. The writer goroutine and
	// any enqueue blocked on a full outbox unblock through it.
	gone     chan struct{}
	goneOnce sync.Once

	mu       sync.Mutex
	lastSeen time.Time

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
// sampled lifecycle trace (nil for most), and whether it was void (its slot
// no longer rides this session) or dropped (by the policy or the guard).
type entryMark struct {
	tr         *obs.PushTrace
	void, drop bool
}

// newSession builds a session for conn, not yet installed in the table.
func newSession(kind sessionKind, key int, conn transport.Conn, rejoined bool, now time.Time) *session {
	_, serializes := conn.(transport.SerializingSender)
	return &session{
		kind:       kind,
		worker:     key,
		conn:       conn,
		rejoined:   rejoined,
		serializes: serializes,
		// Deep enough for a full multi-shard pull reply plus the releases
		// landing behind it without blocking the sequencer.
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

// outMsg is one queued outbound message, plus — when the payload aliases a
// store generation's tensors or packed-cache buffers — the bounded-reader
// reference pinning that generation. The writer releases ref once the transport has serialized the
// message; every path that drops the message instead releases it on the
// spot. ref is nil for control messages and for payloads that do not alias
// store buffers.
type outMsg struct {
	msg transport.Message
	ref *genPin
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
