package transport

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("transport: connection closed")

// chanConn is one endpoint of an in-process connection pair: the binary wire
// minus the socket. Send encodes the message into one frame — the bytes a
// socket would carry — in a buffer from the direction's pool and hands the
// frame through a channel; Recv parses it in place and leases the buffer to
// the message, whose Release hands it back to the pool for a later Send. A
// payload is therefore copied once per direction, by Send, and the steady
// state allocates nothing that scales with it.
type chanConn struct {
	send chan<- []byte
	recv <-chan []byte
	// out is the pool Send takes frame buffers from and the peer's releases
	// return them to; in is the peer's out.
	out, in *bodyPool

	// meter, when non-nil, counts frames and their encoded sizes per message
	// type and direction.
	meter *Metrics

	// encBuf holds a send's inline bytes (header, tags, shapes) and refs the
	// payload slabs, every one of them taken by reference so that the frame's
	// size is known before its buffer is picked. Both guarded by encMu.
	encMu  sync.Mutex
	encBuf []byte
	refs   frameRefs

	closeOnce sync.Once
	closed    chan struct{}
	peer      *chanConn
}

// Pipe returns two connected in-process endpoints. Messages sent on one are
// received on the other. The buffer keeps the parameter server's release
// fan-out from blocking on slow readers.
func Pipe() (Conn, Conn) {
	const depth = 64
	ab := make(chan []byte, depth)
	ba := make(chan []byte, depth)
	abPool, baPool := &bodyPool{}, &bodyPool{}
	a := &chanConn{send: ab, recv: ba, out: abPool, in: baPool, refs: frameRefs{min: 1}, closed: make(chan struct{})}
	b := &chanConn{send: ba, recv: ab, out: baPool, in: abPool, refs: frameRefs{min: 1}, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Conn.
func (c *chanConn) Send(m Message) error {
	// Check for closure first so that Send on a closed connection fails even
	// when buffer space would still accept the message.
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	default:
	}
	frame, err := c.encode(&m)
	if err != nil {
		return fmt.Errorf("transport: send %v: %w", m.Type, err)
	}
	// Counted before the peer can read it, like a frame on a socket.
	c.meter.Sent(m.Type, len(frame))
	select {
	case <-c.closed:
		c.out.put(frame)
		return ErrClosed
	case <-c.peer.closed:
		c.out.put(frame)
		return ErrClosed
	case c.send <- frame:
		return nil
	}
}

// encode assembles m's frame, byte for byte what appendFrame produces, in a
// pooled buffer of exactly its size.
func (c *chanConn) encode(m *Message) ([]byte, error) {
	c.encMu.Lock()
	defer c.encMu.Unlock()
	inline, err := appendFrameRefs(c.encBuf[:0], m, &c.refs)
	if err != nil {
		return nil, err
	}
	size := len(inline) + c.refs.bytes
	frame := c.out.get(size)
	if frame == nil {
		frame = make([]byte, 0, size)
	}
	from := 0
	for _, r := range c.refs.list {
		frame = append(append(frame, inline[from:r.off]...), r.data...)
		from = r.off
	}
	frame = append(frame, inline[from:]...)
	c.encBuf = inline[:0]
	c.refs.truncate(0)
	return frame, nil
}

// Recv implements Conn.
func (c *chanConn) Recv() (Message, error) {
	select {
	case <-c.closed:
		return Message{}, ErrClosed
	case frame, ok := <-c.recv:
		if !ok {
			return Message{}, ErrClosed
		}
		return c.decode(frame)
	case <-c.peer.closed:
		// Drain any messages the peer sent before closing.
		select {
		case frame, ok := <-c.recv:
			if ok {
				return c.decode(frame)
			}
		default:
		}
		return Message{}, ErrClosed
	}
}

// decode parses a frame the peer's Send assembled — this process's own
// encoder, so its header needs no checking. As on a socket, a frame with a
// small body yields a message that owns copies and the buffer goes straight
// back; a payload frame is leased to its message.
func (c *chanConn) decode(frame []byte) (Message, error) {
	typ, body := frame[5], frame[headerSize:]
	var lease *bodyLease
	if len(body) > smallBodyMax {
		lease = &bodyLease{pool: c.in, buf: frame}
	}
	m, err := adopt(typ, body, lease, nil)
	if lease == nil {
		c.in.put(frame)
	}
	if err != nil {
		return Message{}, fmt.Errorf("transport: recv: %w", err)
	}
	c.meter.Received(m.Type, len(frame))
	return m, nil
}

// Close implements Conn.
func (c *chanConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// ChanListener is an in-process Listener whose Dial method creates worker
// connections without any networking.
type ChanListener struct {
	conns chan Conn

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	meter  *Metrics
}

// NewChanListener returns an in-process listener. Call Dial to obtain the
// worker end of a new connection; the server end is returned by Accept.
func NewChanListener() *ChanListener {
	return &ChanListener{
		conns: make(chan Conn, 16),
		done:  make(chan struct{}),
	}
}

// SetMeter installs a transport meter on the listener: the server end of
// every connection created by a subsequent Dial counts its traffic into
// meter. Call before serving; nil disables.
func (l *ChanListener) SetMeter(m *Metrics) {
	l.mu.Lock()
	l.meter = m
	l.mu.Unlock()
}

// Dial creates a new in-process connection to the listener and returns the
// worker endpoint.
func (l *ChanListener) Dial() (Conn, error) {
	l.mu.Lock()
	closed := l.closed
	meter := l.meter
	l.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	serverEnd, workerEnd := Pipe()
	serverEnd.(*chanConn).meter = meter
	select {
	case l.conns <- serverEnd:
		return workerEnd, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Accept implements Listener.
func (l *ChanListener) Accept() (Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close implements Listener.
func (l *ChanListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.done)
	}
	return nil
}

// Addr implements Listener.
func (l *ChanListener) Addr() string { return fmt.Sprintf("inproc://%p", l) }
