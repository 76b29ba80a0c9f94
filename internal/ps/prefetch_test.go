package ps

import (
	"testing"
	"time"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// pullsServed reads the server's dssp_pull_total: the Weights replies it
// built, asked for or prefetched.
func pullsServed(srv *Server) float64 { return srv.Registry().Snapshot()["dssp_pull_total"] }

// TestPrefetchDiesWithItsTenure: a prefetching push whose release waits on
// its apply gate while the slot leaves and is re-admitted gets neither its OK
// nor its Weights onto the successor session, and no reply is built for it.
// The rejoined session's first frame is the reply to its own Pull.
func TestPrefetchDiesWithItsTenure(t *testing.T) {
	gate := gateSteps(t)
	st, err := NewStoreSharded([]*tensor.Tensor{tensor.New(4)}, optimizer.NewSGD(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	h := newRelayHarness(t, core.MustNewBSP(2), st, 0, 0, Options{})
	srv := h.server
	direct := func(w int) *Client {
		conn, err := h.rootListener.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(conn, w)
		t.Cleanup(func() { c.Close() })
		return c
	}
	leaver, stayer := direct(0), direct(1)
	for _, c := range []*Client{leaver, stayer} {
		if err := c.Register(); err != nil {
			t.Fatal(err)
		}
	}
	grad := []*tensor.Tensor{tensor.Full(0.1, 4)}
	stayed, left := make(chan error, 1), make(chan error, 1)
	// Worker 1's push enters the gated optimizer step; worker 0's flagged
	// push completes the barrier, queueing a release for both gated on both
	// applies.
	go func() { stayed <- stayer.PushAndWait(grad, 0, 0) }()
	<-gate.entered
	go func() { left <- leaver.pushAndWait(grad, nil, 0, 0, true) }()
	waitFor(t, "the server never counted the flagged push", func() bool { return srv.Status().Pushes >= 2 })
	if err := leaver.conn.Send(transport.Message{Type: transport.MsgLeave, Worker: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the server never processed the leave", func() bool { return srv.Status().Departures >= 1 })
	rejoined := direct(0)
	if err := rejoined.rejoin(st.Version()); err != nil {
		t.Fatal(err)
	}

	close(gate.resume)
	select {
	case err := <-stayed:
		if err != nil {
			t.Fatalf("worker 1's release never arrived: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker 1 still blocked after the gate opened")
	}
	if _, version, err := rejoined.Pull(); err != nil || version != 2 {
		t.Fatalf("the rejoined session's pull returned version %d, %v; want its own reply at version 2", version, err)
	}
	if n := pullsServed(srv); n != 1 {
		t.Fatalf("%v Weights replies built, want only the rejoined session's own pull's", n)
	}
	select {
	case <-left:
	case <-time.After(5 * time.Second):
		t.Fatal("worker 0's abandoned push never unblocked")
	}
}

// TestOnlyAFlatWorkerIsOfferedPrefetch pins the one rule for
// transport.Message.Prefetch: a server states the offer in its Registered
// reply, only a worker's own session on a flat server gets it, and a flagged
// push on any other session is refused with an Error — on a trunk, whose
// replies its relay demultiplexes; on a relay's child, whose Registered reply
// is the root's to the trunk, forwarded; on a data server and a coordinator,
// neither of which holds the whole model behind the release. The offered
// session's flagged push gets its OK and the Weights behind it.
func TestOnlyAFlatWorkerIsOfferedPrefetch(t *testing.T) {
	const size = 4
	grads := transport.ToWireOwned(testGrads(1, 1, size))
	flat := func(t *testing.T) func() (transport.Conn, error) {
		srv, err := NewServer(ServerConfig{Workers: 2, Policy: core.MustNewASP(2), Store: testStore(t, size)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		_, dial := endpoint(t, false, func(l transport.Listener) { _ = srv.Serve(l) })
		return dial
	}
	group := func(t *testing.T, coordinator bool) func() (transport.Conn, error) {
		g := startTestGroup(t, 1, 1, core.MustNewASP(1), []*tensor.Tensor{tensor.New(size)})
		addr := g.dataAddrs[0]
		if coordinator {
			addr = g.coordAddr
		}
		return func() (transport.Conn, error) { return g.dial(addr) }
	}
	relayChild := func(t *testing.T) func() (transport.Conn, error) {
		return newRelayHarness(t, core.MustNewASP(1), testStore(t, size), 1, 1, Options{}).listeners[0].Dial
	}
	worker := []transport.Message{{Type: transport.MsgRegister}}
	member := []transport.Message{{Type: transport.MsgRegister, Cluster: true}}
	trunk := append([]transport.Message{{Type: transport.MsgRegister, Relay: true,
		Servers: []transport.ServerEntry{{Addr: "raw-trunk", ShardHi: 1}}}}, worker...)
	push := transport.Message{Type: transport.MsgPush, Version: 1, Iteration: 1, Tensors: grads, Prefetch: true}
	partial, ticket := push, push
	partial.PushEntries = []transport.PushEntry{{Version: 1, Iteration: 1}}
	ticket.Tensors = nil
	for _, tc := range []struct {
		name string
		dial func(t *testing.T) func() (transport.Conn, error)
		// joins are the registrations sent before the flagged push.
		joins   []transport.Message
		push    transport.Message
		offered bool
	}{
		{"flat worker", flat, worker, push, true},
		{"trunk", flat, trunk, partial, false},
		{"relay child", relayChild, worker, push, false},
		{"data server", func(t *testing.T) func() (transport.Conn, error) { return group(t, false) }, member, push, false},
		{"coordinator", func(t *testing.T) func() (transport.Conn, error) { return group(t, true) }, member, ticket, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := tc.dial(t)()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			recv := func() transport.Message {
				t.Helper()
				msg, err := conn.Recv()
				if err != nil {
					t.Fatal(err)
				}
				msg.Release()
				return msg
			}
			for i, join := range tc.joins {
				if err := conn.Send(join); err != nil {
					t.Fatal(err)
				}
				if ack := recv(); ack.Type != transport.MsgRegistered || ack.Prefetch != tc.offered {
					t.Fatalf("registration %d answered %v offering Prefetch %v, want Registered offering %v",
						i, ack.Type, ack.Prefetch, tc.offered)
				}
			}
			if err := conn.Send(tc.push); err != nil {
				t.Fatal(err)
			}
			want := []transport.MessageType{transport.MsgError}
			if tc.offered {
				want = []transport.MessageType{transport.MsgOK, transport.MsgWeights}
			}
			for _, typ := range want {
				if reply := recv(); reply.Type != typ || (typ == transport.MsgError && reply.Error != prefetchRefused) {
					t.Fatalf("a flagged push answered %v %q, want %v", reply.Type, reply.Error, want)
				}
			}
		})
	}
}

// waitFor polls cond for up to two seconds and fails the test with msg if it
// never holds.
func waitFor(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
	}
}
