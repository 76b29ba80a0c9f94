package transport

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/tensor"
)

// vectoredFrames is the message set the by-reference send path must put on
// the wire byte for byte as appendFrame encodes it: the golden fp16 Push and
// Weights frames (wire_golden_test.go), dense Push and Weights frames whose
// big slabs cross refSlabMin next to small ones that stay inline, and a
// frame of v4, the one protocol version above 1 that carries a payload.
func vectoredFrames(t *testing.T) []Message {
	t.Helper()
	comp, err := compress.NewCompressor(compress.Config{Codec: compress.FP16})
	if err != nil {
		t.Fatal(err)
	}
	grads := goldenFP16Tensors()
	dense := testGrads(7) // the 128×128 and 64×128 weights cross refSlabMin, the biases do not
	odd := []*tensor.Tensor{tensor.Full(1, 3), tensor.Full(2, 4099), tensor.Full(3, 1)}
	return []Message{
		{Type: MsgPush, Worker: 3, Iteration: 7, Version: 41, Codec: compress.FP16, Packed: comp.Compress(grads)},
		{Type: MsgWeights, Worker: 3, Total: 4, Version: 42, Codec: compress.FP16,
			Packed: compress.Pack(grads, compress.Config{Codec: compress.FP16, Pull: true})},
		{Type: MsgPush, Worker: 1, Iteration: 9, Version: 17, Tensors: ToWireOwned(dense)},
		{Type: MsgWeights, Worker: 1, Total: 8, Version: 18, Tensors: ToWireOwned(dense[:2])},
		{Type: MsgWeights, Worker: 1, Total: 8, Version: 18,
			Tensors: ToWireOwned(dense[2:])},
		{Type: MsgWeights, Worker: 1, Total: 3, Tensors: ToWireOwned(odd)}, // padding before every slab
		{Type: MsgPush, Worker: -1, Version: 3, Iteration: 2, Tensors: ToWireOwned(dense),
			PushEntries: []PushEntry{{Worker: 0, Version: 3, Iteration: 2}, {Worker: 1, Version: 4, Iteration: 2}}}, // a relay trunk's push
		{Type: MsgPush, Worker: 2, Codec: compress.FP16, Packed: compress.Pack(dense, compress.Config{Codec: compress.FP16})},
		{Type: MsgOK, Worker: 2},
	}
}

// rawPair returns a binaryConn writing into one end of a connection and the
// raw net.Conn at the other: a real TCP socket (Send gathers with writev) or
// a net.Pipe (net.Buffers falls back to one Write per segment).
func rawPair(t *testing.T, tcp bool) (*binaryConn, net.Conn) {
	t.Helper()
	if !tcp {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		return newBinaryConn(a, false), b
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	t.Cleanup(func() { a.Close(); b.Close() })
	return newBinaryConn(a, false), b
}

// TestVectoredSendIsByteIdentical pins the tentpole's wire contract: whether
// a slab travels inline or by reference, through writev, the sequential
// fallback or an in-process channel, in a single Send or a batch, the peer
// reads exactly appendFrame's bytes — so the golden frames and every
// cross-version pin hold on every send path.
func TestVectoredSendIsByteIdentical(t *testing.T) {
	msgs := vectoredFrames(t)
	var want []byte
	var sizes []int
	for i := range msgs {
		before := len(want)
		var err error
		if want, err = appendFrame(want, &msgs[i]); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(want)-before)
	}
	for name, golden := range map[int]string{0: goldenFP16Frames["push 1"], 1: goldenFP16Frames["weights"]} {
		if got := hex.EncodeToString(want[sum(sizes[:name]):sum(sizes[:name+1])]); got != golden {
			t.Fatalf("frame %d is not the golden fp16 frame it is meant to be", name)
		}
	}

	for _, tc := range []struct {
		name   string
		tcp    bool
		refMin int
		batch  bool
	}{
		{"tcp/default", true, refSlabMin, false},
		{"tcp/every-slab-by-ref", true, 1, false},
		{"tcp/every-slab-by-ref/batch", true, 1, true},
		{"tcp/default/batch", true, refSlabMin, true},
		{"pipe/default", false, refSlabMin, false},
		{"pipe/every-slab-by-ref", false, 1, false},
		{"pipe/every-slab-by-ref/batch", false, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, raw := rawPair(t, tc.tcp)
			conn.refs.min = tc.refMin
			got := make([]byte, len(want))
			read := make(chan error, 1)
			go func() {
				_, err := io.ReadFull(raw, got)
				read <- err
			}()
			if tc.batch {
				if err := conn.SendBatch(msgs); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, m := range msgs {
					if err := conn.Send(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := <-read; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				off := 0
				for off < len(got) && got[off] == want[off] {
					off++
				}
				t.Fatalf("wire bytes differ from appendFrame's at offset %d of %d", off, len(want))
			}
			if len(conn.refs.list) != 0 || conn.refs.bytes != 0 || len(conn.vec) != 0 || conn.bufs != nil {
				t.Error("a send left by-reference state on the connection")
			}
			for i, v := range conn.vec[:cap(conn.vec)] {
				if v != nil {
					t.Fatalf("gather entry %d still pins a payload after the write", i)
				}
			}
			if tc.refMin == 1 && cap(conn.encBuf) > 4<<10 {
				t.Errorf("inline buffer grew to %d bytes although every slab went by reference", cap(conn.encBuf))
			}
		})
	}
	// The in-process carrier hands the same frames through a channel.
	t.Run("channel", func(t *testing.T) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		var got []byte
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				t.Fatal(err)
			}
			got = append(got, <-b.(*chanConn).recv...)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("the frames a channel Send hands over differ from appendFrame's")
		}
		if c := a.(*chanConn); len(c.refs.list) != 0 || c.refs.bytes != 0 {
			t.Error("a send left by-reference state on the connection")
		}
	})
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// TestVectoredSendFailureLeavesNoRefs covers the error exits: a frame that
// fails to encode mid-batch and a write to a closed socket must both leave
// the connection without dangling slab references (they would pin the
// caller's tensors and corrupt the next send's gather list).
func TestVectoredSendFailureLeavesNoRefs(t *testing.T) {
	conn, raw := rawPair(t, true)
	conn.refs.min = 1
	good := Message{Type: MsgPush, Tensors: ToWireOwned(testGrads(1))}
	bad := Message{Type: MsgPush, Tensors: []WireTensor{{Shape: []int{2}, Data: []float32{1}}}}
	if err := conn.SendBatch([]Message{good, bad}); err == nil {
		t.Fatal("a malformed tensor encoded")
	}
	if len(conn.refs.list) != 0 || conn.refs.bytes != 0 {
		t.Fatalf("failed batch left %d refs (%d bytes)", len(conn.refs.list), conn.refs.bytes)
	}
	// The connection still works, and the next frame is intact.
	want, err := appendFrame(nil, &good)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	read := make(chan error, 1)
	go func() { _, err := io.ReadFull(raw, got); read <- err }()
	if err := conn.Send(good); err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil || !bytes.Equal(got, want) {
		t.Fatalf("frame after a failed batch is damaged (read error %v)", err)
	}
	conn.Close()
	if err := conn.Send(good); err == nil {
		t.Fatal("send on a closed socket succeeded")
	}
	if len(conn.refs.list) != 0 || conn.refs.bytes != 0 {
		t.Fatal("failed write left slab references behind")
	}
}
