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
	go func() { left <- leaver.pushAndWait(grad, 0, 0, true) }()
	waitFor(t, "the server never counted the flagged push", func() bool { return srv.Pushes() >= 2 })
	if err := leaver.conn.Send(transport.Message{Type: transport.MsgLeave, Worker: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the server never processed the leave", func() bool { return srv.Departures() >= 1 })
	rejoined := direct(0)
	if err := rejoined.Rejoin(st.Version()); err != nil {
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

// TestTrunkPrefetchIsIgnored: a relay trunk's partial asking for a prefetch
// is answered with the OK of each entry and nothing else — a trunk's pulls go
// through its relay's replica session, and a Weights frame on the trunk would
// desynchronize its demultiplexer.
func TestTrunkPrefetchIsIgnored(t *testing.T) {
	const size = 4
	srv, err := NewServer(ServerConfig{Workers: 2, Policy: core.MustNewASP(2), Store: testStore(t, size)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	_, dial := endpoint(t, false, func(l transport.Listener) { _ = srv.Serve(l) })
	trunk := rawTrunk(t, dial, 0, 1)
	for it := 1; it <= 2; it++ {
		if err := trunk.Send(transport.Message{
			Type:        transport.MsgPush,
			Version:     int64(it),
			Iteration:   it,
			PushEntries: []transport.PushEntry{{Worker: 0, Version: int64(it), Iteration: it}, {Worker: 1, Version: int64(it), Iteration: it}},
			Tensors:     transport.ToWireOwned(testGrads(1, it, size)),
			Prefetch:    true,
		}); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			reply, err := trunk.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if reply.Type != transport.MsgOK {
				t.Fatalf("partial %d answered with %v, want an OK per entry and nothing else", it, reply.Type)
			}
			reply.Release()
		}
	}
	if n := pullsServed(srv); n != 0 {
		t.Fatalf("%v Weights replies built for a trunk's prefetch, want none", n)
	}
}

// TestRelayServesAChildsPrefetch: a worker whose flat route reaches a relay
// rather than a server still gets the next weights behind its OK — from the
// relay's upstream cache — so its next Pull, which sends nothing, returns.
func TestRelayServesAChildsPrefetch(t *testing.T) {
	const size = 4
	st := testStore(t, size)
	h := newRelayHarness(t, core.MustNewASP(1), st, 1, 1, Options{})
	c := h.childClient(t, 0)
	t.Cleanup(func() { c.Close() })
	done := make(chan error, 1)
	go func() {
		_, v, err := c.Pull()
		for it := 0; err == nil && it < 3; it++ {
			if err = c.pushAndWait(testGrads(1, it, size), v, it, true); err != nil {
				break
			}
			if _, v, err = c.Pull(); err == nil && v != int64(it+1) {
				t.Errorf("prefetched reply %d carries version %d, want %d", it, v, it+1)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a prefetching child's Pull never returned through the relay")
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
