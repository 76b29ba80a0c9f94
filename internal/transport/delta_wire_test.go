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

// TestV2FieldsRoundTrip pins Unchanged, the gated pull's empty reply,
// through the binary codec.
func TestV2FieldsRoundTrip(t *testing.T) {
	m := Message{Type: MsgWeights, Worker: -1, Version: 17, Unchanged: true}
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
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
		var bs Conn = conn
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
