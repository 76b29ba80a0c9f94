//go:build linux

package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"dssp/internal/compress"
	"dssp/internal/obs"
	"dssp/internal/tensor"
)

// handshakePair runs the lane handshake over a fresh unix stream with arenas
// of arenaBytes each, for the tests that want an arena small enough to fill.
func handshakePair(t *testing.T, arenaBytes int) (a, b *binaryConn) {
	t.Helper()
	l, err := net.Listen("unix", fmt.Sprintf("@dssp-lane-test/%d/%s", os.Getpid(), t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type result struct {
		conn *binaryConn
		err  error
	}
	accepted := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			accepted <- result{err: err}
			return
		}
		conn, err := laneHandshake(c.(*net.UnixConn), true, arenaBytes, nil)
		accepted <- result{conn, err}
	}()
	c, err := net.Dial("unix", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a, err = laneHandshake(c.(*net.UnixConn), false, arenaBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := <-accepted
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { a.Close(); r.conn.Close() })
	return a, r.conn
}

// sameFrame fails unless got re-encodes to exactly want's frame.
func sameFrame(t *testing.T, got, want Message) {
	t.Helper()
	g, err := appendFrame(nil, &got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := appendFrame(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("a %v frame of %d bytes arrived as a different message", want.Type, len(w))
	}
}

// TestLoopbackDialUpgradesToLane is the lane end to end: a Dial to a loopback
// listener comes back on the lane at both ends; every frame of the vectored
// set — single sends and one batch, bodies above and below laneMinBody —
// decodes to the message that was sent; only the headers of the large ones
// cross the socket; and the byte counters still report logical frame sizes.
func TestLoopbackDialUpgradesToLane(t *testing.T) {
	msgs := vectoredFrames(t)
	regS, regC := obs.NewRegistry(), obs.NewRegistry()
	l, err := ListenWireMetered("127.0.0.1:0", WireBinary, NewMetrics(regS))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	c, err := DialWireMetered(l.Addr(), WireBinary, NewMetrics(regC))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := <-accepted
	defer s.Close()
	if got := c.(*binaryConn).carrier; got != carrierLane {
		t.Fatalf("a loopback dial came back on %q", got)
	}
	if got := s.(*binaryConn).carrier; got != carrierLane {
		t.Fatalf("the listener accepted the loopback dial on %q", got)
	}

	var logical, large int
	for i := range msgs {
		frame, err := appendFrame(nil, &msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		logical += 2 * len(frame) // sent once singly, once in the batch
		if len(frame)-headerSize >= laneMinBody {
			large += 2
		}
	}
	if large == 0 || large == 2*len(msgs) {
		t.Fatalf("%d of %d frames qualify for the arena: the set must straddle laneMinBody", large, 2*len(msgs))
	}
	sent := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := c.Send(m); err != nil {
				sent <- err
				return
			}
		}
		sent <- c.(*binaryConn).SendBatch(msgs)
	}()
	var held []Message
	for i := 0; i < 2*len(msgs); i++ {
		m, err := s.Recv()
		if err != nil {
			t.Fatal(err)
		}
		sameFrame(t, m, msgs[i%len(msgs)])
		held = append(held, m)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i := range held {
		held[i].Release()
	}

	snapS, snapC := regS.Snapshot(), regC.Snapshot()
	var sentBytes, recvBytes float64
	for k, v := range snapC {
		if strings.HasPrefix(k, "dssp_transport_bytes_total{") {
			sentBytes += v
		}
	}
	for k, v := range snapS {
		if strings.HasPrefix(k, "dssp_transport_bytes_total{") {
			recvBytes += v
		}
	}
	if int(sentBytes) != logical || int(recvBytes) != logical {
		t.Errorf("byte counters read %v sent, %v received for %d logical frame bytes", sentBytes, recvBytes, logical)
	}
	for name, want := range map[string]float64{
		`dssp_transport_conns{carrier="lane"}`:              1,
		`dssp_transport_conns{carrier="tcp"}`:               0,
		`dssp_transport_lane_frames_total{dir="recv"}`:      float64(large),
		`dssp_transport_lane_inline_total`:                  0,
		`dssp_transport_recv_body_alloc_total`:              0,
		`dssp_transport_recv_body_reuse_total`:              0,
		`dssp_transport_lane_frames_total{dir="sent"}`:      0,
		`dssp_transport_frames_total{dir="recv",type="OK"}`: 2,
	} {
		if got, ok := snapS[name]; !ok || got != want {
			t.Errorf("server %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if got := snapC[`dssp_transport_lane_frames_total{dir="sent"}`]; got != float64(large) {
		t.Errorf("client lane frames sent = %v, want %d", got, large)
	}
	s.Close()
	if got := regS.Snapshot()[`dssp_transport_conns{carrier="lane"}`]; got != 0 {
		t.Errorf("server lane conns after Close = %v, want 0", got)
	}
}

// TestLaneSteadyStateAllocatesNoMoreThanTCP: a warm lane Send allocates
// nothing, and a warm lane round trip no more than the TCP one it replaces.
func TestLaneSteadyStateAllocatesNoMoreThanTCP(t *testing.T) {
	m := payload(1, 16<<10) // a 64 KB frame
	warm := func(lane bool) (send func(), recv func()) {
		a, b, _ := leasePair(t, lane)
		send = func() {
			if err := a.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		recv = func() {
			got, err := b.Recv()
			if err != nil {
				t.Fatal(err)
			}
			got.Release()
		}
		for i := 0; i < 4; i++ {
			send()
			recv()
		}
		return send, recv
	}
	send, recv := warm(false)
	tcp := testing.AllocsPerRun(20, func() { send(); recv() })
	send, recv = warm(true)
	lane := testing.AllocsPerRun(20, func() { send(); recv() })
	// Headers alone cross the socket, so the sends need no reader.
	laneSend := testing.AllocsPerRun(20, send)
	for i := 0; i < 21; i++ {
		recv()
	}
	t.Logf("allocations per 64 KB round trip: tcp %.0f, lane %.0f (the send alone %.0f)", tcp, lane, laneSend)
	if lane > tcp {
		t.Errorf("a lane round trip allocates %.0f objects, the TCP one %.0f", lane, tcp)
	}
	if laneSend != 0 {
		t.Errorf("a warm lane Send allocates %.0f objects", laneSend)
	}
}

// TestLaneFullArenaFallsBackInline: with every slot leased, the next payload
// frame travels inline on the socket — no wait, no error — decodes to the
// same message, and the slots come back once the leases end.
func TestLaneFullArenaFallsBackInline(t *testing.T) {
	send, recv := handshakePair(t, 64*lanePage) // 63 data pages
	reg := obs.NewRegistry()
	send.meter = NewMetrics(reg)
	want := payload(3, 20*lanePage/4) // 20 pages of floats plus tags: 21 pages
	var held []Message
	for i := 0; i < 5; i++ {
		if err := send.Send(want); err != nil {
			t.Fatal(err)
		}
		m, err := recv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		sameFrame(t, m, want)
		held = append(held, m)
		inline := reg.Snapshot()["dssp_transport_lane_inline_total"]
		if wantInline := float64(max(0, i-2)); inline != wantInline {
			t.Fatalf("after %d sends with none released, %v went inline, want %v", i+1, inline, wantInline)
		}
		if (m.lease.arena != nil) != (i < 3) {
			t.Fatalf("frame %d: arena slot %v, want the first three in the arena and the rest on the heap", i, m.lease.arena != nil)
		}
	}
	for i := range held {
		held[i].Release()
	}
	if err := send.Send(want); err != nil {
		t.Fatal(err)
	}
	m, err := recv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.lease.arena == nil || m.lease.page != recv.fr.arena.dataStart() {
		t.Fatalf("after every release the next frame did not land in the lowest slot")
	}
	m.Release()
}

// TestLaneLeaseOutlivesPeerAndConnection: the sender dies and the receiver
// closes while a slot is leased; the payload stays readable until Release,
// and only then is the arena unmapped.
func TestLaneLeaseOutlivesPeerAndConnection(t *testing.T) {
	send, recv := handshakePair(t, 64*lanePage)
	if err := send.Send(payload(7, 8<<10)); err != nil {
		t.Fatal(err)
	}
	m, err := recv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	in := recv.fr.arena
	unmapped := false
	free := in.free
	in.free = func() { unmapped = true; free() }
	send.Close()
	if _, err := recv.Recv(); err == nil {
		t.Fatal("Recv after the peer closed returned a frame")
	}
	recv.Close()
	for i, v := range m.Tensors[0].Data {
		if v != 7 {
			t.Fatalf("value %d of a leased slot reads %v after both ends closed", i, v)
		}
	}
	if unmapped {
		t.Fatal("the arena was unmapped under a lease")
	}
	m.Release()
	if !unmapped {
		t.Fatal("the last release did not unmap the arena")
	}
	m.Release() // still idempotent
}

// carrierEcho serves a listener whose connections answer every message with
// itself, Worker set to say which carrier the server saw; stop closes it and
// waits for its accept loops.
func carrierEcho(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					m.Worker = map[string]int{carrierTCP: 1, carrierLane: 2}[c.(*binaryConn).carrier]
					err = c.Send(m)
					m.Release()
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr(), func() { l.Close() }
}

// echoCarriers dials addr, round-trips one payload frame and reports the
// carrier each end found itself on.
func echoCarriers(t *testing.T, addr string) (client, server string) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(payload(1, 8<<10)); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	return c.(*binaryConn).carrier, map[int]string{1: carrierTCP, 2: carrierLane}[m.Worker]
}

// TestForeignPeersStayOnTCP covers the two ways a loopback dial finds no lane:
// the address is a plain TCP proxy's, which has no abstract twin, and the
// process behind the name runs under another uid. Both dials succeed, on TCP.
func TestForeignPeersStayOnTCP(t *testing.T) {
	addr, stop := carrierEcho(t)
	if client, server := echoCarriers(t, addr); client != carrierLane || server != carrierLane {
		t.Fatalf("a direct loopback dial ran on %s/%s, want the lane", client, server)
	}
	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	go func() {
		for {
			down, err := proxy.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				down.Close()
				return
			}
			go func() { _, _ = io.Copy(up, down); up.Close() }()
			go func() { _, _ = io.Copy(down, up); down.Close() }()
		}
	}()
	if client, server := echoCarriers(t, proxy.Addr().String()); client != carrierTCP || server != carrierTCP {
		t.Fatalf("a dial through a TCP proxy ran on %s/%s, want tcp", client, server)
	}
	stop()

	// Every peer is somebody else for as long as this listener lives: set
	// before its accept loops start, restored after stop has waited for them.
	laneUID++
	foreign, stop := carrierEcho(t)
	client, server := echoCarriers(t, foreign)
	stop()
	laneUID--
	if client != carrierTCP || server != carrierTCP {
		t.Fatalf("a dial to a peer of another uid ran on %s/%s, want tcp", client, server)
	}
}

// TestListenerCloseFreesLaneName: a listener restarted on the port it just
// left binds the abstract name again, so dials to the new one upgrade.
func TestListenerCloseFreesLaneName(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	for restart := 0; restart < 3; restart++ {
		if l.(*tcpListener).lane == nil {
			t.Fatalf("listener %d on %s has no lane", restart, addr)
		}
		accepted := make(chan Conn, 1)
		go func() {
			if c, err := l.Accept(); err == nil {
				accepted <- c
			}
		}()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.(*binaryConn).carrier; got != carrierLane {
			t.Fatalf("dial to listener %d came back on %q", restart, got)
		}
		c.Close()
		(<-accepted).Close()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Accept(); err == nil {
			t.Fatal("Accept on a closed listener returned a connection")
		}
		if l, err = Listen(addr); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
}

// slotPush is a push whose tensor layout crosses refSlabMin twice (by
// reference) with a small slab between them (inline), odd-sized so that
// every slab needs padding.
func slotPush(iteration int) Message {
	return Message{Type: MsgPush, Worker: 3, Iteration: iteration, Version: 9, Tensors: ToWireOwned([]*tensor.Tensor{
		tensor.Full(0, 64, 129), tensor.Full(0, 33), tensor.Full(0, 5001)})}
}

// placedPush places send's push slot for slotPush's layout and returns the
// slot and a push whose tensors are its views, filled with v + the tensor
// index.
func placedPush(t *testing.T, send *binaryConn, v float32) (*pushSlot, Message, func()) {
	t.Helper()
	views, release, ok := send.PlaceBody(slotPush(1))
	if !ok {
		t.Fatal("a lane connection placed no push slot")
	}
	m := slotPush(7)
	for i, view := range views {
		data := bytesFloat32(view, len(view)/4)
		for j := range data {
			data[j] = v + float32(i)
		}
		m.Tensors[i].Data = data
	}
	return send.laneOut.push, m, release
}

// recvBody receives one frame and returns it with the body bytes it was
// parsed from, which on the lane are the arena slot it arrived in.
func recvBody(t *testing.T, recv *binaryConn) (Message, []byte) {
	t.Helper()
	m, err := recv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.lease == nil || m.lease.arena == nil {
		t.Fatal("a payload frame did not arrive in the arena")
	}
	return m, m.lease.buf
}

// wantBody is the body the copy path sends for m.
func wantBody(t *testing.T, m Message) []byte {
	t.Helper()
	frame, err := appendFrame(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	return frame[headerSize:]
}

// TestLanePushSlotSendsInPlace: a push whose tensors are the push slot's
// views leaves with only its header on the socket, arrives in the slot, and
// decodes to the same message from the same body bytes as the copy path
// sends; once the receiver releases it the slot carries the next one.
func TestLanePushSlotSendsInPlace(t *testing.T) {
	send, recv := handshakePair(t, 1024*lanePage)
	reg := obs.NewRegistry()
	send.meter = NewMetrics(reg)
	slot, m, release := placedPush(t, send, 1)
	defer release()
	if slot.page+len(slot.mem)/lanePage != send.laneOut.pages || send.laneOut.limit != slot.page {
		t.Fatalf("the slot spans pages [%d, %d) of %d with the allocator stopping at %d: not the arena's top, or not outside the allocator",
			slot.page, slot.page+len(slot.mem)/lanePage, send.laneOut.pages, send.laneOut.limit)
	}
	if _, _, ok := send.PlaceBody(slotPush(1)); ok {
		t.Fatal("a second PlaceBody placed a second slot")
	}
	for round := 1; round <= 3; round++ {
		if !send.SlotFree() {
			t.Fatalf("round %d: the slot is busy before anything was sent from it", round)
		}
		for i := range m.Tensors {
			for j := range m.Tensors[i].Data {
				m.Tensors[i].Data[j] = float32(round*10 + i)
			}
		}
		if err := send.Send(m); err != nil {
			t.Fatal(err)
		}
		got, body := recvBody(t, recv)
		sameFrame(t, got, m)
		if !bytes.Equal(body, wantBody(t, m)) {
			t.Fatalf("round %d: the body sent in place differs from the copy path's", round)
		}
		if got.lease.page != slot.page {
			t.Fatalf("round %d: the frame arrived in slot %d, not the push slot %d", round, got.lease.page, slot.page)
		}
		if send.SlotFree() {
			t.Fatalf("round %d: the slot reads free while the receiver holds its frame", round)
		}
		got.Release()
		if want := float64(round); reg.Snapshot()["dssp_transport_lane_in_place_total"] != want {
			t.Fatalf("round %d: %v frames counted in place, want %v", round, reg.Snapshot()["dssp_transport_lane_in_place_total"], want)
		}
	}
	if got := reg.Snapshot()[`dssp_transport_lane_frames_total{dir="sent"}`]; got != 3 {
		t.Errorf("%v frames counted through the arena, want 3", got)
	}
}

// TestLanePushSlotFallsBackToCopy: a busy slot, a slab that is not the slot's
// view and a frame whose Iteration is 0 (the field is omitted, so every slab
// moves) each take the copy path — the same body bytes, in another slot —
// and write nothing into the push slot.
func TestLanePushSlotFallsBackToCopy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alter func(m *Message)
		busy  bool
	}{
		{name: "busy", busy: true},
		{name: "misplaced", alter: func(m *Message) {
			m.Tensors[2].Data = append([]float32(nil), m.Tensors[2].Data...)
		}},
		{name: "iteration-0", alter: func(m *Message) { m.Iteration = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			send, recv := handshakePair(t, 1024*lanePage)
			reg := obs.NewRegistry()
			send.meter = NewMetrics(reg)
			slot, m, release := placedPush(t, send, 5)
			defer release()
			var held Message
			if tc.busy {
				if err := send.Send(m); err != nil {
					t.Fatal(err)
				}
				held, _ = recvBody(t, recv)
				defer held.Release()
			}
			if tc.alter != nil {
				tc.alter(&m)
			}
			before := append([]byte(nil), slot.mem...)
			inPlace := reg.Snapshot()["dssp_transport_lane_in_place_total"]
			if err := send.Send(m); err != nil {
				t.Fatal(err)
			}
			got, body := recvBody(t, recv)
			defer got.Release()
			sameFrame(t, got, m)
			if !bytes.Equal(body, wantBody(t, m)) {
				t.Fatal("the copied body differs from the frame's encoding")
			}
			if got.lease.page == slot.page {
				t.Fatal("the frame arrived in the push slot")
			}
			if !bytes.Equal(slot.mem, before) {
				t.Fatal("a frame that took the copy path wrote into the push slot")
			}
			if reg.Snapshot()["dssp_transport_lane_in_place_total"] != inPlace {
				t.Fatal("a copied frame was counted in place")
			}
		})
	}
}

// packedSlotPush is slotPush's layout under the fp16 codec: one payload over
// refSlabMin (by reference) and two under it (inline).
func packedSlotPush(iteration int) Message {
	ps := compress.Pack([]*tensor.Tensor{tensor.Full(0, 64, 129), tensor.Full(0, 33), tensor.Full(0, 5001)},
		compress.Config{Codec: compress.FP16})
	return Message{Type: MsgPush, Worker: 3, Iteration: iteration, Version: 9, Codec: compress.FP16, Packed: ps}
}

// TestLanePackedPushSlotWritesNoPayload: a packed push whose payloads were
// encoded in the push slot's views leaves with only its header on the socket
// and not one byte through the arena's write — the bytes around the payloads
// are copied into the mapped slot, the payloads not at all — and decodes to
// the same message from the same body bytes as the copy path sends; a push
// whose payload is not the slot's view is written, into another slot.
func TestLanePackedPushSlotWritesNoPayload(t *testing.T) {
	send, recv := handshakePair(t, 1024*lanePage)
	reg := obs.NewRegistry()
	send.meter = NewMetrics(reg)
	views, release, ok := send.PlaceBody(packedSlotPush(1))
	if !ok {
		t.Fatal("a lane connection placed no push slot for a packed push")
	}
	defer release()
	slot := send.laneOut.push
	written := 0
	write := send.laneOut.write
	send.laneOut.write = func(off int, vec [][]byte) error {
		for _, v := range vec {
			written += len(v)
		}
		return write(off, vec)
	}
	m := packedSlotPush(7)
	for round := 1; round <= 3; round++ {
		if !send.SlotFree() {
			t.Fatalf("round %d: the slot is busy before anything was sent from it", round)
		}
		for i, v := range views {
			for j := range v {
				v[j] = byte(round + i + j)
			}
			m.Packed[i].Payload = v
		}
		if err := send.Send(m); err != nil {
			t.Fatal(err)
		}
		got, body := recvBody(t, recv)
		sameFrame(t, got, m)
		if !bytes.Equal(body, wantBody(t, m)) {
			t.Fatalf("round %d: the body sent in place differs from the copy path's", round)
		}
		if got.lease.page != slot.page || written != 0 {
			t.Fatalf("round %d: the frame arrived in slot %d (the push slot is %d) with %d bytes written", round, got.lease.page, slot.page, written)
		}
		got.Release()
	}
	if n := reg.Snapshot()["dssp_transport_lane_in_place_total"]; n != 3 {
		t.Fatalf("%v packed pushes counted in place, want 3", n)
	}

	m.Packed[0].Payload = append([]byte(nil), m.Packed[0].Payload...)
	if err := send.Send(m); err != nil {
		t.Fatal(err)
	}
	got, body := recvBody(t, recv)
	defer got.Release()
	if got.lease.page == slot.page || written != len(body) || !bytes.Equal(body, wantBody(t, m)) {
		t.Fatalf("a misplaced payload arrived in slot %d (the push slot is %d) with %d of its %d body bytes written",
			got.lease.page, slot.page, written, len(body))
	}
}

// TestLanePushSlotOutlivesClose: the views stay mapped — readable and
// writable — after both ends close, with another goroutine writing them as
// the closes happen, until the holder's release; only that unmaps the arena.
func TestLanePushSlotOutlivesClose(t *testing.T) {
	send, recv := handshakePair(t, 1024*lanePage)
	_, m, release := placedPush(t, send, 2)
	out := send.laneOut
	unmapped := false
	free := out.free
	out.free = func() { unmapped = true; free() }
	written := make(chan struct{})
	go func() {
		defer close(written)
		for round := 0; round < 100; round++ {
			for _, w := range m.Tensors {
				for j := range w.Data {
					w.Data[j] = float32(round)
				}
			}
		}
	}()
	send.Close()
	recv.Close()
	<-written
	if send.SlotFree() {
		t.Error("a closed connection reports its push slot free")
	}
	for i, w := range m.Tensors {
		for j, v := range w.Data {
			if v != 99 {
				t.Fatalf("view %d[%d] reads %v after Close, want 99", i, j, v)
			}
		}
	}
	if unmapped {
		t.Fatal("Close unmapped the arena under placed views")
	}
	release()
	if !unmapped {
		t.Fatal("the release after Close did not unmap the arena")
	}
	release() // idempotent
}

// TestLaneReferenceFrames is the reference frame end to end: a listener that
// shares a generation region offers it in every lane hello, a dense Weights
// reply whose tensors lie in it crosses as a reference — the receiver reads
// the sender's values through its own read-only mapping, nothing copied, and
// both ends meter the frame at its logical size — and the extent it names is
// not reclaimable while the reference is out: until the receiver releases
// it, whether or not the sending connection is still open.
//
// Mutation-checked: ending a closed connection's holds at once lets the
// extent be reclaimed — and rewritten — under the reference still read.
func TestLaneReferenceFrames(t *testing.T) {
	regS, regC := obs.NewRegistry(), obs.NewRegistry()
	l, err := ListenWireMetered("127.0.0.1:0", WireBinary, NewMetrics(regS))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	alloc := l.(RegionHost).ShareRegion(nil)
	if alloc == nil {
		t.Fatal("a lane listener shares no region")
	}
	accepted := make(chan Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	c, err := DialWireMetered(l.Addr(), WireBinary, NewMetrics(regC))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := <-accepted
	defer s.Close()

	mem, reclaim, free := alloc(8192 + 33)
	defer free()
	big, small := tensor.FromSliceOwned(mem[:8192], 64, 128), tensor.FromSliceOwned(mem[8192:], 33)
	for i := range mem {
		mem[i] = float32(i)
	}
	reply := Message{Type: MsgWeights, Worker: 1, Version: 7, Total: 5,
		Tensors: ToWireOwned([]*tensor.Tensor{big, small})}
	frame, err := appendFrame(nil, &reply)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(reply); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sameFrame(t, got, reply)
	if &got.Tensors[0].Data[0] == &mem[0] {
		t.Fatal("the receiver reads the sender's writable mapping")
	}
	if reclaim() {
		t.Fatal("the extent is reclaimable while a reference into it is out")
	}
	for name, want := range map[string]float64{
		`dssp_transport_bytes_total{dir="recv",type="Weights"}`: float64(len(frame)),
		`dssp_transport_lane_frames_total{dir="recv"}`:          1,
	} {
		if got := regC.Snapshot()[name]; got != want {
			t.Errorf("receiver %s = %v, want %v", name, got, want)
		}
	}
	if got := regS.Snapshot()[`dssp_transport_bytes_total{dir="sent",type="Weights"}`]; got != float64(len(frame)) {
		t.Errorf("sender metered %v Weights bytes, the logical frame is %d", got, len(frame))
	}
	got.Release()
	if !reclaim() {
		t.Fatal("the extent stays pinned after the receiver released the reference")
	}

	// The sending connection closes — a lease expiry, say — while the
	// receiver, alive, still reads the reference: the extent stays pinned,
	// however long the sender goes on reclaiming, until the receiver lets go.
	if err := s.Send(reply); err != nil {
		t.Fatal(err)
	}
	kept, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for i := 0; i < 5; i++ {
		if reclaim() {
			t.Fatal("a closed connection's reference stopped pinning the extent while its receiver still reads it")
		}
		time.Sleep(2 * orphanPoll)
	}
	if v := kept.Tensors[1].Data[32]; v != 8192+32 {
		t.Fatalf("an unreleased reference reads %v after its sender closed, want %v", v, 8192+32)
	}
	kept.Release()
	if !reclaim() {
		t.Fatal("the extent stays pinned after the receiver released the reference its sender's connection closed on")
	}
}

// TestLanePackedReferenceFrames: a packed Weights reply — a pull codec's —
// whose payloads lie in the region the listener shares crosses as a
// reference, as a dense one does: the receiver reads the payloads through its
// own read-only mapping, both ends meter the frame at its logical size, and
// the extent it names is not reclaimable until the receiver releases it.
func TestLanePackedReferenceFrames(t *testing.T) {
	regS, regC := obs.NewRegistry(), obs.NewRegistry()
	l, err := ListenWireMetered("127.0.0.1:0", WireBinary, NewMetrics(regS))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	alloc := l.(RegionHost).ShareRegion(nil)
	if alloc == nil {
		t.Fatal("a lane listener shares no region")
	}
	accepted := make(chan Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	c, err := DialWireMetered(l.Addr(), WireBinary, NewMetrics(regC))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := <-accepted
	defer s.Close()

	reply, reclaim, free := packedRegionReply(t, alloc)
	defer free()
	frame, err := appendFrame(nil, &reply)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(reply); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sameFrame(t, got, reply)
	if &got.Packed[0].Payload[0] == &reply.Packed[0].Payload[0] {
		t.Fatal("the receiver reads the sender's writable mapping")
	}
	if reclaim() {
		t.Fatal("the extent is reclaimable while a reference into it is out")
	}
	for name, want := range map[string]float64{
		`dssp_transport_bytes_total{dir="recv",type="Weights"}`: float64(len(frame)),
		`dssp_transport_lane_refs_total`:                        1,
	} {
		if got := regC.Snapshot()[name]; got != want {
			t.Errorf("receiver %s = %v, want %v", name, got, want)
		}
	}
	if got := regS.Snapshot()[`dssp_transport_bytes_total{dir="sent",type="Weights"}`]; got != float64(len(frame)) {
		t.Errorf("sender metered %v Weights bytes, the logical frame is %d", got, len(frame))
	}
	got.Release()
	if !reclaim() {
		t.Fatal("the extent stays pinned after the receiver released the reference")
	}
}

// packedRegionReply returns an fp16 Weights reply whose two payloads, over and
// under refSlabMin, lie in one extent alloc carves, with the extent's reclaim
// and free.
func packedRegionReply(t *testing.T, alloc func(int) ([]float32, func() bool, func())) (Message, func() bool, func()) {
	t.Helper()
	ps := compress.Pack([]*tensor.Tensor{tensor.Full(0.5, 64, 256), tensor.Full(-2, 33)}, compress.Config{Codec: compress.FP16})
	mem, reclaim, free := alloc((len(ps[0].Payload) + len(ps[1].Payload) + 3) / 4)
	if mem == nil {
		t.Fatal("the region has no room for a packed generation")
	}
	buf := float32Bytes(mem)
	for i := range ps {
		n := copy(buf, ps[i].Payload)
		ps[i].Payload, buf = buf[:n:n], buf[n:]
	}
	return Message{Type: MsgWeights, Worker: 1, Version: 7, Total: 5,
		Codec: compress.FP16, Packed: ps}, reclaim, free
}

// TestPackedPathsCopyOnTCP: on TCP there is no push slot to encode a packed
// push in, and a packed reply whose payloads lie in the listener's region
// arrives in a receive buffer of its own, the extent never pinned: both
// paths copy.
func TestPackedPathsCopyOnTCP(t *testing.T) {
	defer SetLaneEnabled(false)()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	alloc := l.(RegionHost).ShareRegion(nil)
	if alloc == nil {
		t.Fatal("the listener shares no region")
	}
	accepted := make(chan Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := <-accepted
	defer s.Close()
	if _, _, ok := c.(BodyPlacer).PlaceBody(packedSlotPush(1)); ok {
		t.Fatal("a TCP connection placed a push slot")
	}
	reply, reclaim, free := packedRegionReply(t, alloc)
	defer free()
	if err := s.Send(reply); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	sameFrame(t, got, reply)
	if got.lease == nil || got.lease.arena != nil || !reclaim() {
		t.Fatal("a packed reply on TCP did not arrive in a receive buffer of its own")
	}
}

// TestLanePeerWithoutPidfdGetsNoRegion: where the kernel gives no pidfd for
// the peer, the listener offers it no region — nobody would see it exit, and
// the references a crashed reader held would pin their generations for good.
// The connection is still a lane, and a reply whose tensors lie in the
// region — dense, or an fp16 reply's payloads — crosses as a copy: the
// extent is reclaimable while the received message is still unreleased.
func TestLanePeerWithoutPidfdGetsNoRegion(t *testing.T) {
	// Set before the listener's accept loop runs a handshake, restored after
	// the one handshake has been delivered through Accept.
	open := pidfdOpen
	pidfdOpen = func(int) (int, error) { return -1, syscall.ENOSYS }
	defer func() { pidfdOpen = open }()

	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	alloc := l.(RegionHost).ShareRegion(nil)
	if alloc == nil {
		t.Fatal("a lane listener shares no region")
	}
	accepted := make(chan Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := <-accepted
	defer s.Close()
	if got := c.(*binaryConn).carrier; got != carrierLane {
		t.Fatalf("the dial ran on %s, want the lane", got)
	}
	if s.(*binaryConn).regionOut != nil || c.(*binaryConn).fr.region != nil {
		t.Fatal("a peer without a pidfd was offered the region")
	}

	mem, reclaim, free := alloc(8192)
	defer free()
	for i := range mem {
		mem[i] = float32(i)
	}
	reply := Message{Type: MsgWeights, Version: 7, Tensors: ToWireOwned([]*tensor.Tensor{tensor.FromSliceOwned(mem, 64, 128)})}
	packed, packedReclaim, packedFree := packedRegionReply(t, alloc)
	defer packedFree()
	for _, m := range []struct {
		reply   Message
		reclaim func() bool
	}{{reply, reclaim}, {packed, packedReclaim}} {
		if err := s.Send(m.reply); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		defer got.Release()
		sameFrame(t, got, m.reply)
		if !m.reclaim() {
			t.Fatalf("the extent is pinned by a %d-tensor reply that should have been copied", len(got.Tensors)+len(got.Packed))
		}
	}
}
