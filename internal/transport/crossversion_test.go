package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"dssp/internal/compress"
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

// TestOneWireVersion pins the one-version rule (docs/PROTOCOL.md §2, §6).
// Every frame is stamped wireVersion, whatever fields it carries. A frame
// stamped with any other version is refused as a wire mismatch on the
// server's first Recv, on TCP and on the same-host lane, and the server
// answers with an Error frame naming its own version. A frame whose type is
// not a defined MessageType is a decode error.
func TestOneWireVersion(t *testing.T) {
	comp, err := compress.NewCompressor(compress.Config{Codec: compress.TopK, TopK: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	entry := ServerEntry{Addr: "10.0.0.3:7070", ShardHi: 2, TensorHi: 3}
	for _, m := range []Message{
		{Type: MsgHeartbeat, Worker: 3},
		{Type: MsgRegister, Worker: 1, Codec: compress.TopK, CodecTopK: 0.1, CodecPull: true},
		{Type: MsgRegistered, Worker: 1, Version: 99, Codec: compress.Int8, StoreShards: 4},
		{Type: MsgPush, Worker: 2, Iteration: 7, Version: 41, Tensors: ToWireOwned(smallMLPGrads(1))},
		{Type: MsgPush, Worker: 2, Iteration: 8, Version: 42, Tensors: ToWireOwned(smallMLPGrads(1)), Prefetch: true},
		{Type: MsgWeights, Worker: 0, Version: 12, Total: 4,
			Tensors: ToWireOwned(smallMLPGrads(2)[2:])},
		{Type: MsgError, Error: "boom"},
		{Type: MsgPush, Codec: compress.TopK, Packed: comp.Compress(smallMLPGrads(3))},
		{Type: MsgWeights, Worker: -1, Version: 7, Unchanged: true},
		{Type: MsgClusterMap, Version: 17, MapVersion: 3, StoreShards: 4, Total: 6, Servers: []ServerEntry{entry}},
		{Type: MsgClusterMap},
		{Type: MsgServerAnnounce, Servers: []ServerEntry{entry}, Replica: true},
		{Type: MsgPromote, Servers: []ServerEntry{entry}},
		{Type: MsgRegister, Worker: 2, Cluster: true},
		{Type: MsgPush, Relay: true, PushEntries: []PushEntry{{Worker: 0, Version: 3, Iteration: 2}}},
	} {
		frame, err := appendFrame(nil, &m)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Type, err)
		}
		if frame[4] != wireVersion {
			t.Errorf("%v frame stamped version %d, want %d", m.Type, frame[4], wireVersion)
		}
	}

	for _, carrier := range []string{carrierTCP, carrierLane} {
		t.Run(carrier, func(t *testing.T) {
			defer SetLaneEnabled(carrier == carrierLane)()
			l, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for _, version := range []byte{0, 1, 2, 3, 4, 6, 255} {
				accepted := make(chan Conn, 1)
				go func() {
					if s, err := l.Accept(); err == nil {
						accepted <- s
					}
				}()
				c, err := Dial(l.Addr())
				if err != nil {
					t.Fatal(err)
				}
				server := <-accepted
				if got := c.(*binaryConn).carrier; got != carrier {
					c.Close()
					server.Close()
					t.Skipf("a loopback dial runs on %s here, not %s", got, carrier)
				}
				frame, err := appendFrame(nil, &Message{Type: MsgRegister, Worker: 1})
				if err != nil {
					t.Fatal(err)
				}
				frame[4] = version
				if _, err := c.(*binaryConn).conn.Write(frame); err != nil {
					t.Fatal(err)
				}
				if _, err := recvWithin(t, server, 5*time.Second); !errors.Is(err, ErrWireVersion) || !IsWireMismatch(err) {
					t.Errorf("version %d: server's first Recv returned %v, want a wire version mismatch", version, err)
				}
				reply, err := recvWithin(t, c, 5*time.Second)
				if err != nil || reply.Type != MsgError || !IsWireMismatch(errors.New(reply.Error)) ||
					!strings.Contains(reply.Error, fmt.Sprintf("version %d", wireVersion)) {
					t.Errorf("version %d: client got %+v, %v; want an Error naming version %d", version, reply, err, wireVersion)
				}
				c.Close()
				server.Close()
			}
		})
	}

	for _, typ := range []byte{byte(MsgPromote) + 1, 255} {
		frame, err := appendFrame(nil, &Message{Type: MsgHeartbeat, Worker: 3})
		if err != nil {
			t.Fatal(err)
		}
		frame[5] = typ
		if m, err := newFrameReader(bufio.NewReader(bytes.NewReader(frame))).readFrame(); err == nil {
			t.Errorf("a frame of type %d decoded to %+v", typ, m)
		}
	}
}
