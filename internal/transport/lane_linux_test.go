//go:build linux

package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"

	"dssp/internal/obs"
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
		conn, err := laneHandshake(c.(*net.UnixConn), true, arenaBytes)
		accepted <- result{conn, err}
	}()
	c, err := net.Dial("unix", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a, err = laneHandshake(c.(*net.UnixConn), false, arenaBytes)
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
