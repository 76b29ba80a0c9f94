package transport

import (
	"bufio"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// recvWithin runs one Recv under a deadline: the point of the first-frame
// checks is that a foreign peer resolves quickly instead of hanging either
// side.
func recvWithin(t *testing.T, c Conn, d time.Duration) (Message, error) {
	t.Helper()
	type result struct {
		m   Message
		err error
	}
	ch := make(chan result, 1)
	go func() {
		m, err := c.Recv()
		ch <- result{m, err}
	}()
	select {
	case r := <-ch:
		return r.m, r.err
	case <-time.After(d):
		t.Fatal("Recv did not return; a foreign peer is hanging the connection")
		return Message{}, nil
	}
}

// notDSSP is what a peer that is not speaking the protocol sends first: at
// least a header's worth of bytes without the magic.
const notDSSP = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"

// TestNonDSSPBytesAgainstBinaryServer: bytes without the frame magic fail the
// server's first Recv with exactly one ErrWireMismatch ("not a DSSP frame");
// the server writes nothing back — the peer could not parse it — and closing
// the connection, as every accept loop does on a Recv error, is what the peer
// sees. Nothing hangs.
func TestNonDSSPBytesAgainstBinaryServer(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte(notDSSP)); err != nil {
		t.Fatal(err)
	}

	_, err = recvWithin(t, server, 5*time.Second)
	if !errors.Is(err, ErrWireMismatch) || !IsWireMismatch(err) || !strings.Contains(err.Error(), "not a DSSP frame") {
		t.Fatalf("server Recv returned %v, want ErrWireMismatch naming a non-DSSP frame", err)
	}
	server.Close()

	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := raw.Read(make([]byte, 64)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("peer read %d bytes, err %v; want a bare close", n, err)
	}
}

// TestBinaryClientAgainstNonDSSPServer is the other end: a client whose
// first reply lacks the magic reports ErrWireMismatch — which reconnect loops
// treat as permanent — instead of a generic parse error.
func TestBinaryClientAgainstNonDSSPServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = c.Read(make([]byte, 64))
		_, _ = c.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
	}()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send(Message{Type: MsgRegister}); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(t, client, 5*time.Second); !errors.Is(err, ErrWireMismatch) {
		t.Fatalf("client Recv returned %v, want ErrWireMismatch", err)
	}
}

// TestFutureVersionClientRejectedExplicitly dials a binary server with a
// hand-crafted frame claiming a protocol version newer than any this build
// speaks. The server must reply with an Error frame in its own version
// naming both versions and close — the version-negotiation rule of
// docs/PROTOCOL.md §6.
func TestFutureVersionClientRejectedExplicitly(t *testing.T) {
	l, err := ListenWire("127.0.0.1:0", WireBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = conn.Recv() // fails on the version byte and replies
	}()

	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame, err := appendFrame(nil, &Message{Type: MsgRegister, Worker: 0})
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = wireVersion + 1 // claim a future protocol version
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}

	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := newFrameReader(bufio.NewReader(raw))
	reply, err := fr.readFrame()
	if err != nil {
		t.Fatalf("expected a v1 error frame, got %v", err)
	}
	if reply.Type != MsgError || !strings.Contains(reply.Error, "version") {
		t.Fatalf("got %+v, want an Error naming the version mismatch", reply)
	}
}

// TestParseWireFormat pins the flag-level validation.
func TestParseWireFormat(t *testing.T) {
	if w, err := ParseWireFormat(""); err != nil || w != WireBinary {
		t.Errorf("empty format parsed as (%q, %v), want the binary default", w, err)
	}
	if _, err := ParseWireFormat("protobuf"); err == nil {
		t.Error("unknown wire format accepted")
	}
	if _, err := ParseWireFormat("gob"); err == nil || !strings.Contains(err.Error(), "removed in PR 15") {
		t.Errorf("gob parsed with err %v, want an error naming its removal", err)
	}
}
