package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// WireFormat names the TCP encoding. There is one — the binary frame
// protocol — and the type, WireBinary, ParseWireFormat and the wire argument
// of ListenWire/DialWire/DialWireMetered below stay only because bench/
// compiles against them; nothing selects a format any more.
type WireFormat string

// WireBinary is the versioned zero-copy binary frame protocol
// (docs/PROTOCOL.md).
const WireBinary WireFormat = "binary"

// ParseWireFormat validates a wire format name; "" selects WireBinary, the
// only one.
func ParseWireFormat(s string) (WireFormat, error) {
	if s == "" || WireFormat(s) == WireBinary {
		return WireBinary, nil
	}
	return "", fmt.Errorf("transport: unknown wire format %q (want %q)", s, WireBinary)
}

// tcpListener is a TCP listener and, where the platform has one, its
// same-host twin: an abstract unix socket named from the bound address, on
// which loopback dialers upgrade themselves to the payload lane (lane.go).
// Both feed one Accept.
type tcpListener struct {
	l     net.Listener
	lane  net.Listener // nil when there is no lane to offer
	meter *Metrics

	// offer is the generation region every lane handshake offers
	// (ShareRegion), nil for none. The handshakes wait for ready — closed by
	// ShareRegion or the first Accept — so that a peer dialing before its
	// server is serving still gets the region.
	offer     atomic.Pointer[regionOffer]
	ready     chan struct{}
	readyOnce sync.Once

	conns chan Conn
	errs  chan error
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// Listen starts a TCP listener on addr (e.g. ":7070" or "127.0.0.1:0").
func Listen(addr string) (Listener, error) {
	return ListenWireMetered(addr, WireBinary, nil)
}

// ListenWire is Listen; the wire argument is a bench/ compatibility shim.
func ListenWire(addr string, wire WireFormat) (Listener, error) {
	return ListenWireMetered(addr, wire, nil)
}

// ListenWireMetered is Listen with transport metering: every accepted
// connection counts its frames and bytes into meter (nil disables).
func ListenWireMetered(addr string, wire WireFormat, meter *Metrics) (Listener, error) {
	if _, err := ParseWireFormat(string(wire)); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := &tcpListener{
		l:     l,
		lane:  listenLane(l.Addr()),
		meter: meter,
		ready: make(chan struct{}),
		conns: make(chan Conn),
		errs:  make(chan error, 1), // the TCP accept loop's one, final error
		done:  make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptTCP()
	if t.lane != nil {
		t.wg.Add(1)
		go t.acceptLane()
	}
	return t, nil
}

// acceptTCP hands every TCP connection to Accept until the listener fails or
// closes; that error ends Accept too.
func (t *tcpListener) acceptTCP() {
	defer t.wg.Done()
	for {
		c, err := t.l.Accept()
		if err != nil {
			t.errs <- fmt.Errorf("transport: accept: %w", err)
			return
		}
		t.deliver(newBinaryConn(c, true).metered(t.meter))
	}
}

// acceptLane upgrades every connection to the abstract socket, each on its
// own goroutine so that a peer stalling the handshake holds up nobody else.
// One that fails the handshake is dropped; its dialer falls back to TCP.
func (t *tcpListener) acceptLane() {
	defer t.wg.Done()
	for {
		c, err := t.lane.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			select {
			case <-t.ready:
			case <-t.done:
				c.Close()
				return
			}
			if conn := upgradeLane(c, true, t.meter, t.offer.Load()); conn != nil {
				t.deliver(conn)
			}
		}()
	}
}

// deliver hands conn to the next Accept, or closes it when the listener
// closed first.
func (t *tcpListener) deliver(conn Conn) {
	select {
	case t.conns <- conn:
	case <-t.done:
		conn.Close()
	}
}

// Accept implements Listener.
func (t *tcpListener) Accept() (Conn, error) {
	t.open()
	select {
	case conn := <-t.conns:
		return conn, nil
	case err := <-t.errs:
		t.errs <- err // the loop is over: every later Accept fails the same way
		return nil, err
	case <-t.done:
		return nil, fmt.Errorf("transport: accept: %w", net.ErrClosed)
	}
}

// Close implements Listener. It returns once both accept loops have ended,
// which frees the abstract name for a restart on the same port.
func (t *tcpListener) Close() error {
	var err error
	t.once.Do(func() {
		close(t.done)
		err = t.l.Close()
		if t.lane != nil {
			t.lane.Close()
		}
		t.wg.Wait()
		if o := t.offer.Swap(nil); o != nil {
			o.reg.drop()
		}
	})
	return err
}

// open lets the lane handshakes held for ShareRegion proceed.
func (t *tcpListener) open() { t.readyOnce.Do(func() { close(t.ready) }) }

// ShareRegion implements RegionHost.
func (t *tcpListener) ShareRegion(via Conn) func(n int) ([]float32, func() bool, func()) {
	defer t.open()
	if t.lane == nil {
		return nil
	}
	o := &regionOffer{}
	if via == nil {
		r, err := newRegion(regionBytes)
		if err != nil {
			return nil
		}
		o.reg = r
	} else if bc, ok := via.(*binaryConn); ok {
		bc.decMu.Lock()
		if r := bc.fr.region; r != nil {
			r.holders.Add(1)
			o.reg, o.src = r, bc.fr
		}
		bc.decMu.Unlock()
	}
	if o.reg == nil {
		return nil
	}
	if !t.offer.CompareAndSwap(nil, o) {
		o.reg.drop()
		return nil
	}
	if o.src != nil {
		return nil
	}
	return o.reg.alloc
}

// Addr implements Listener.
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// Dial connects to a parameter server listening on addr: over TCP, or, when
// addr is this host and the server offers it, over the same-host lane.
func Dial(addr string) (Conn, error) {
	return DialWireMetered(addr, WireBinary, nil)
}

// DialWire is Dial; the wire argument is a bench/ compatibility shim.
func DialWire(addr string, wire WireFormat) (Conn, error) {
	return DialWireMetered(addr, wire, nil)
}

// DialWireMetered is Dial with transport metering on the resulting
// connection (nil disables).
func DialWireMetered(addr string, wire WireFormat, meter *Metrics) (Conn, error) {
	if _, err := ParseWireFormat(string(wire)); err != nil {
		return nil, err
	}
	if !laneOff.Load() {
		if conn := dialLane(addr, meter); conn != nil {
			return conn, nil
		}
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newBinaryConn(c, false).metered(meter), nil
}
