package transport

import (
	"testing"

	"dssp/internal/obs"
)

// TestSentFrameIsCountedBeforeThePeerReadsIt: on every carrier a frame is
// counted as sent before its receiver can read it, so a receiver that has
// read frame k sees the sender's dssp_transport_frames_total{dir="sent"} at
// k or more at once, with no wait — for frames sent one by one and in
// batches, small and with a payload.
func TestSentFrameIsCountedBeforeThePeerReadsIt(t *testing.T) {
	const frames = 200
	run := func(t *testing.T, send, recv Conn, snapshot func() map[string]float64) {
		errs := make(chan error, 1)
		go func() {
			for k := 0; k < frames; k++ {
				m := Message{Type: MsgPush, Iteration: k}
				if k%3 == 0 {
					m = payload(float32(k), 8<<10)
					m.Iteration = k
				}
				var err error
				if k%4 == 1 && k+1 < frames {
					next := Message{Type: MsgPush, Iteration: k + 1}
					err = send.SendBatch([]Message{m, next})
					k++
				} else {
					err = send.Send(m)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		const sent = `dssp_transport_frames_total{dir="sent",type="Push"}`
		for k := 1; k <= frames; k++ {
			m, err := recv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			m.Release()
			if got := snapshot()[sent]; got < float64(k) {
				t.Fatalf("frame %d read while its sender had counted %v sent", k, got)
			}
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, lane := range []bool{false, true} {
		name := "tcp"
		if lane {
			name = "lane"
		}
		t.Run(name, func(t *testing.T) {
			// leasePair meters its accepting end: here it is the sender.
			recv, send, snapshot := leasePair(t, lane)
			run(t, send, recv, snapshot)
		})
	}
	t.Run("channel", func(t *testing.T) {
		send, recv := Pipe()
		t.Cleanup(func() { send.Close(); recv.Close() })
		reg := obs.NewRegistry()
		send.(*chanConn).meter = NewMetrics(reg)
		run(t, send, recv, reg.Snapshot)
	})
}
