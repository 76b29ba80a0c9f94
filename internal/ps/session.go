package ps

import (
	"sync"
	"time"

	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// session is one live worker registration: the connection it arrived on, the
// outbox its writer goroutine drains, and the lease state that keeps it
// alive. A worker slot has at most one current session; re-registration
// supersedes the previous session instead of silently overwriting its outbox
// (which used to strand the old writer goroutine until server stop).
type session struct {
	worker int
	conn   transport.Conn
	// rejoined reports whether the session re-entered via MsgRejoin.
	rejoined bool
	// deltaPull reports that this session negotiated version-gated delta
	// pulls at registration: its MsgPull requests may carry PullVersions and
	// its weight chunks may come back Unchanged. Set before the session's
	// writer starts, immutable afterwards.
	deltaPull bool
	// relay marks an aggregation-relay trunk (MsgRegister with Relay set):
	// the session lives under a negative key like a replica's, but unlike a
	// replica it multiplexes many logical workers — child joins, aggregated
	// pushes and departures arrive on it tagged with the child's worker ID,
	// and releases for routed workers are delivered through it. Set before
	// the writer starts, immutable afterwards.
	relay bool
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

	// decodeScratch holds the gradient tensors a compressed push
	// decompresses into, reused across pushes: the model layout is fixed
	// for a session's lifetime, and the protocol is lock-step per worker,
	// so the previous push's tensors are free again (decoded, applied,
	// released) by the time the next push arrives on this session's
	// connection goroutine. Only that goroutine touches the field.
	decodeScratch []*tensor.Tensor
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

// register installs a new session for the worker slot and returns it together
// with the session it superseded (nil if none). The caller ends the old
// session outside the table lock.
func (t *sessionTable) register(worker int, conn transport.Conn, rejoined bool, now time.Time) (sess, old *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, serializes := conn.(transport.SerializingSender)
	sess = &session{
		worker:     worker,
		conn:       conn,
		rejoined:   rejoined,
		serializes: serializes,
		outbox:     make(chan outMsg, 64),
		gone:       make(chan struct{}),
		lastSeen:   now,
	}
	old = t.sessions[worker]
	t.sessions[worker] = sess
	return sess, old
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

// current reports whether sess is still the worker's live session.
func (t *sessionTable) current(sess *session) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions[sess.worker] == sess
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
