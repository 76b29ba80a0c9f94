package transport

import "testing"

// benchPush is the message the wire benchmarks move: a realistic dense push
// (the PR 2 gradient set, ~97 KiB of float32 payload).
func benchPush() Message {
	return Message{Type: MsgPush, Worker: 1, Iteration: 9, Version: 17, Tensors: ToWireOwned(testGrads(42))}
}

// The sub-benchmark name "binary" in the three benchmarks below dates from
// when a gob encoding ran beside it; it stays so the committed baselines keep
// their history.

// BenchmarkWireEncode encodes one dense push, reporting the encoded size. The
// encoder reuses its frame buffer the way a connection does.
func BenchmarkWireEncode(b *testing.B) {
	m := benchPush()
	b.Run("binary", func(b *testing.B) {
		var buf []byte
		var err error
		for i := 0; i < b.N; i++ {
			if buf, err = appendFrame(buf[:0], &m); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(buf)), "wire-B/op")
	})
}

// BenchmarkWireDecode decodes one dense push.
func BenchmarkWireDecode(b *testing.B) {
	m := benchPush()
	b.Run("binary", func(b *testing.B) {
		frame, err := appendFrame(nil, &m)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := parseBody(frame[5], frame[headerSize:], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireRoundTripTCP moves a dense push over a real loopback socket
// and back — syscalls, framing and decode included.
func BenchmarkWireRoundTripTCP(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		l, err := Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			for {
				msg, err := conn.Recv()
				if err != nil {
					return
				}
				if conn.Send(msg) != nil {
					return
				}
			}
		}()
		restore := SetLaneEnabled(false)
		conn, err := Dial(l.Addr())
		restore()
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()

		m := benchPush()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := conn.Send(m); err != nil {
				b.Fatal(err)
			}
			if _, err := conn.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
