package transport

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestV2FieldsRoundTrip pins the one v2 field — Unchanged, the gated pull's
// empty reply — through the binary codec and checks the frame is stamped
// protocol version 2.
func TestV2FieldsRoundTrip(t *testing.T) {
	m := Message{Type: MsgWeights, Worker: -1, Version: 17, Unchanged: true}
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	if frame[4] != 2 {
		t.Fatalf("frame version %d, want 2", frame[4])
	}
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(frame)))
	got, err := fr.readFrame()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", got, m)
	}
}

// TestV1FramesStayV1 pins backward compatibility at the byte level: a
// message that is not an Unchanged reply — a replica's gated Pull included,
// whose version rides the v1 Version field — must encode to a version-1
// frame, identical to what a v1-only build would emit.
func TestV1FramesStayV1(t *testing.T) {
	for _, m := range []Message{
		{Type: MsgRegister, Worker: 1, Codec: "topk", CodecTopK: 0.1},
		{Type: MsgPull, Worker: 2},
		{Type: MsgPull, Worker: -1, Version: 9},
		{Type: MsgWeights, Worker: 0, Shard: 1, Shards: 2, Base: 2, Total: 4, Version: 12,
			Tensors: ToWireOwned(smallMLPGrads(2)[2:])},
		{Type: MsgHeartbeat, Worker: 5},
	} {
		frame, err := appendFrame(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		if frame[4] != 1 {
			t.Fatalf("%v frame without v2 fields stamped version %d, want 1", m.Type, frame[4])
		}
	}
}

// TestV2TagInsideV1FrameRejected pins the version gate: the same bytes that
// decode as a v2 frame must be rejected when the header claims version 1,
// so a v1 conversation decodes under exactly the v1 rules.
func TestV2TagInsideV1FrameRejected(t *testing.T) {
	m := Message{Type: MsgWeights, Version: 3, Unchanged: true}
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = 1 // lie about the version
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(frame)))
	if _, err := fr.readFrame(); err == nil {
		t.Fatal("v2 tag inside a version-1 frame decoded without error")
	}
}

// countingConn is a net.Conn that counts Write calls and discards the data —
// the probe for how many syscalls a send path would issue.
type countingConn struct {
	writes atomic.Int64
	bytes  atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	return len(p), nil
}
func (c *countingConn) Read(p []byte) (int, error)         { select {} }
func (c *countingConn) Close() error                       { return nil }
func (c *countingConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *countingConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *countingConn) SetDeadline(t time.Time) error      { return nil }
func (c *countingConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *countingConn) SetWriteDeadline(t time.Time) error { return nil }

// batchMessages builds a release-fanout-shaped batch: many small control
// frames, the case the outbox writer coalesces.
func batchMessages(n int) []Message {
	ms := make([]Message, n)
	for i := range ms {
		ms[i] = Message{Type: MsgOK, Worker: i + 1}
	}
	return ms
}

// TestSendBatchIssuesOneWrite pins the syscall coalescing contract: a batch
// of N messages reaches the socket in exactly one Write.
func TestSendBatchIssuesOneWrite(t *testing.T) {
	const n = 16
	t.Run("binary", func(t *testing.T) {
		probe := &countingConn{}
		conn := newBinaryConn(probe, false)
		var bs BatchSender = conn
		if err := bs.SendBatch(batchMessages(n)); err != nil {
			t.Fatal(err)
		}
		if got := probe.writes.Load(); got != 1 {
			t.Fatalf("binary SendBatch of %d messages issued %d writes, want 1", n, got)
		}
		// Individual sends for contrast: exactly one write each.
		probe2 := &countingConn{}
		conn2 := newBinaryConn(probe2, false)
		for _, m := range batchMessages(n) {
			if err := conn2.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		if got := probe2.writes.Load(); got != n {
			t.Fatalf("unbatched sends issued %d writes, want %d", got, n)
		}
	})
}

// BenchmarkSendBatchSyscalls pins the syscall reduction of outbox flush
// coalescing as a benchmark metric: writes/op is the number of Write calls
// (syscalls, on a real socket) needed to move a 16-message release fanout.
func BenchmarkSendBatchSyscalls(b *testing.B) {
	const n = 16
	for _, mode := range []string{"batched", "unbatched"} {
		// "binary/" dates from when there was a second encoding; the name
		// stays so the committed baselines keep their history.
		b.Run("binary/"+mode, func(b *testing.B) {
			probe := &countingConn{}
			conn := newBinaryConn(probe, false)
			ms := batchMessages(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "batched" {
					if err := conn.SendBatch(ms); err != nil {
						b.Fatal(err)
					}
				} else {
					for _, m := range ms {
						if err := conn.Send(m); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(probe.writes.Load())/float64(b.N), "writes/op")
		})
	}
}
