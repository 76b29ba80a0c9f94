package transport

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestServerGroupRoundTrip pins the version-3 fields through a full
// encode/decode cycle.
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
		if v := frame[4]; v != 3 {
			t.Errorf("%v frame stamped version %d, want 3", want.Type, v)
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

// TestFrameVersionStampsClusterMessages pins the rule that cluster message
// types are stamped version 3 even when no v3 field is set: an older peer
// must reject the frame outright instead of silently ignoring an unknown
// message type (which would hang a cluster worker waiting for the reply).
func TestFrameVersionStampsClusterMessages(t *testing.T) {
	cases := []struct {
		m    Message
		want byte
	}{
		{Message{Type: MsgClusterMap}, 3},
		{Message{Type: MsgServerAnnounce}, 3},
		{Message{Type: MsgPromote}, 3},
		{Message{Type: MsgRegister, Cluster: true}, 3},
		{Message{Type: MsgRegister, Replica: true}, 3},
		{Message{Type: MsgOK, MapVersion: 2}, 3},
		{Message{Type: MsgWeights, Unchanged: true}, 2},
		{Message{Type: MsgRegister}, 1},
		{Message{Type: MsgPush, Version: 9}, 1},
	}
	for _, c := range cases {
		if got := FrameVersion(c.m); got != c.want {
			t.Errorf("FrameVersion(%v %+v) = %d, want %d", c.m.Type, c.m, got, c.want)
		}
	}
}

// TestV3TagsRejectedInOlderFrames pins the decoder's version gate: the v3
// field tags inside a frame whose header claims version 1 or 2 are a
// protocol violation, exactly as the v2 tags are inside a v1 frame.
func TestV3TagsRejectedInOlderFrames(t *testing.T) {
	m := Message{Type: MsgClusterMap, MapVersion: 5, Servers: []ServerEntry{{Addr: "x:1", ShardHi: 1, TensorHi: 1}}}
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{1, 2} {
		down := append([]byte(nil), frame...)
		down[4] = version
		fr := newFrameReader(bufio.NewReader(bytes.NewReader(down)))
		_, err := fr.readFrame()
		if err == nil {
			t.Fatalf("version-%d frame carrying v3 tags decoded successfully", version)
		}
		if !strings.Contains(err.Error(), "requires protocol version 3") {
			t.Errorf("version-%d rejection %q does not name the version requirement", version, err)
		}
	}
}

// TestV3FrameAgainstOlderDecoderIsWireMismatch simulates what a pre-cluster
// (v2-only) build does with a v3 frame: its readFrame sees a version above
// its maximum and fails with ErrWireVersion — the same canonical
// wire-mismatch condition a v3 server reports for a version-4 frame (pinned
// by TestFutureVersionClientRejectedExplicitly). The header layout is fixed
// across versions precisely so this check is version-independent.
func TestV3FrameAgainstOlderDecoderIsWireMismatch(t *testing.T) {
	m := Message{Type: MsgClusterMap}
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	// A v2-only decoder differs from ours only in its wireVersion constant;
	// replaying its check against our v3 frame must trip it.
	version := frame[4]
	if version <= 2 {
		t.Fatalf("cluster-map frame stamped version %d, expected 3", version)
	}
	// And a frame from a hypothetical v4 build trips ours the same way.
	future := append([]byte(nil), frame...)
	future[4] = wireVersion + 1
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(future)))
	_, err = fr.readFrame()
	if err == nil {
		t.Fatal("future-version frame decoded successfully")
	}
	if !IsWireMismatch(err) {
		t.Errorf("future-version rejection %q is not classified as a wire mismatch", err)
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
