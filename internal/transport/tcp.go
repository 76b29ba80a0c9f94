package transport

import (
	"fmt"
	"net"
)

// WireFormat names the TCP encoding. There is one — the binary frame
// protocol — and the type, WireBinary, ParseWireFormat and the wire argument
// of ListenWire/DialWire/DialWireMetered below stay only because bench/
// compiles against them; nothing selects a format any more.
type WireFormat string

// WireBinary is the versioned zero-copy binary frame protocol
// (docs/PROTOCOL.md).
const WireBinary WireFormat = "binary"

// ParseWireFormat validates a wire format name; "" selects WireBinary. The
// gob stream was removed in PR 15.
func ParseWireFormat(s string) (WireFormat, error) {
	switch WireFormat(s) {
	case "", WireBinary:
		return WireBinary, nil
	case "gob":
		return "", fmt.Errorf("transport: the gob wire format was removed in PR 15; %q is the only one", WireBinary)
	}
	return "", fmt.Errorf("transport: unknown wire format %q (want %q)", s, WireBinary)
}

// tcpListener adapts a net.Listener to the Listener interface.
type tcpListener struct {
	l     net.Listener
	meter *Metrics
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
	return &tcpListener{l: l, meter: meter}, nil
}

// Accept implements Listener.
func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	conn := newBinaryConn(c, true)
	conn.meter = t.meter
	return conn, nil
}

// Close implements Listener.
func (t *tcpListener) Close() error { return t.l.Close() }

// Addr implements Listener.
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// Dial connects to a parameter server listening on addr over TCP.
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
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	conn := newBinaryConn(c, false)
	conn.meter = meter
	return conn, nil
}
