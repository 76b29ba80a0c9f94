package transport

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// TestServerGroupRoundTrip pins the server-group fields and message types
// through a full encode/decode cycle.
func TestServerGroupRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgClusterMap, Version: 41, MapVersion: 7, StoreShards: 8, Total: 12, Servers: []ServerEntry{
			{Addr: "127.0.0.1:9001", ShardLo: 0, ShardHi: 3, TensorLo: 0, TensorHi: 5},
			{Addr: "127.0.0.1:9002", ShardLo: 3, ShardHi: 8, TensorLo: 5, TensorHi: 12},
		}},
		{Type: MsgClusterMap},
		{Type: MsgServerAnnounce, Servers: []ServerEntry{{Addr: "a", ShardHi: 1, TensorHi: 1}}},
		{Type: MsgServerAnnounce, Servers: []ServerEntry{{Addr: "b:1", ShardLo: 1, ShardHi: 2, TensorLo: 1, TensorHi: 2}}, Replica: true},
		{Type: MsgPromote, Servers: []ServerEntry{{Addr: "b:1", ShardLo: 1, ShardHi: 2, TensorLo: 1, TensorHi: 2}}},
		{Type: MsgRegister, Worker: 3, Cluster: true},
		{Type: MsgRegister, Replica: true},
	}
	for _, want := range msgs {
		frame, err := appendFrame(nil, &want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Type, err)
		}
		fr := newFrameReader(bufio.NewReader(bytes.NewReader(frame)))
		got, err := fr.readFrame()
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the message:\ngot  %+v\nwant %+v", got, want)
		}
	}
}

// TestServersSectionHostileInputs drives the cluster-map section decoder
// with corrupt encodings.
func TestServersSectionHostileInputs(t *testing.T) {
	good, err := appendFrame(nil, &Message{Type: MsgClusterMap, Servers: []ServerEntry{{Addr: "x:1", ShardHi: 1, TensorHi: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"forged count", func(b []byte) []byte {
			// The count lives right after the tag byte; make it enormous.
			i := bytes.IndexByte(b[headerSize:], tagServers) + headerSize + 1
			b[i], b[i+1], b[i+2], b[i+3] = 0xff, 0xff, 0xff, 0x7f
			return b
		}},
		{"truncated entry", func(b []byte) []byte { return b[:len(b)-3] }},
		{"negative bound", func(b []byte) []byte {
			// The last 4 bytes are TensorHi; flip its sign bit.
			b[len(b)-1] |= 0x80
			return b
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frame := c.mutate(append([]byte(nil), good...))
			// Re-stamp the length in case the mutation shortened the body.
			if len(frame) >= headerSize {
				patchBodyLen(frame)
			}
			fr := newFrameReader(bufio.NewReader(bytes.NewReader(frame)))
			if _, err := fr.readFrame(); err == nil {
				t.Error("corrupt cluster-map frame decoded successfully")
			}
		})
	}
}

// patchBodyLen rewrites a frame's declared body length to its actual size.
func patchBodyLen(frame []byte) {
	n := len(frame) - headerSize
	frame[8] = byte(n)
	frame[9] = byte(n >> 8)
	frame[10] = byte(n >> 16)
	frame[11] = byte(n >> 24)
}
