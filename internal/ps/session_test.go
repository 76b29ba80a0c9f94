package ps

import (
	"strings"
	"testing"
	"time"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// startElasticServer brings up a server with the given policy on an
// in-process listener and returns both plus a dialer for raw clients.
func startElasticServer(t *testing.T, policy core.Policy, cfg ServerConfig) (*Server, *transport.ChanListener) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = testStore(t, 4)
	}
	cfg.Workers = policy.NumWorkers()
	cfg.Policy = policy
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	listener := transport.NewChanListener()
	go func() { _ = srv.Serve(listener) }()
	t.Cleanup(func() {
		srv.Stop()
		listener.Close()
	})
	return srv, listener
}

// overCarriers runs a session-layer test along the carrier axis: its workers
// dial the root itself ("direct"), or a relay covering every slot
// ("relay-child") — the same accept loop, dispatch, table, writer and lease
// sweep, with the relay's handlers plugged in and the root's behind the trunk.
func overCarriers(t *testing.T, test func(t *testing.T, carrier string)) {
	for _, carrier := range []string{"direct", "relay-child"} {
		t.Run(carrier, func(t *testing.T) { test(t, carrier) })
	}
}

// startCarrier is startElasticServer for one arm of the carrier axis: it
// returns the root server and the listener the arm's workers dial.
func startCarrier(t *testing.T, carrier string, policy core.Policy, cfg ServerConfig) (*Server, *transport.ChanListener) {
	t.Helper()
	if carrier == "direct" {
		return startElasticServer(t, policy, cfg)
	}
	h := newRelayHarness(t, policy, testStore(t, 4), 1, policy.NumWorkers(), cfg.Options)
	return h.server, h.listeners[0]
}

// dialClient connects and registers a raw client.
func dialClient(t *testing.T, l *transport.ChanListener, worker int) *Client {
	t.Helper()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(conn, worker)
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDuplicateRegistrationSupersedesOldSession is the regression test for
// the outbox leak: re-registering a worker ID used to overwrite
// outboxes[workerID] without ending the old writer goroutine, stranding it
// until server stop. Now the old session ends immediately: its connection is
// closed and the new session serves the slot.
func TestDuplicateRegistrationSupersedesOldSession(t *testing.T) {
	overCarriers(t, testDuplicateRegistrationSupersedesOldSession)
}

func testDuplicateRegistrationSupersedesOldSession(t *testing.T, carrier string) {
	policy := core.MustNewASP(1)
	_, listener := startCarrier(t, carrier, policy, ServerConfig{})

	first := dialClient(t, listener, 0)
	second := dialClient(t, listener, 0)

	// The superseded session's connection must be closed by the server, so
	// a blocking receive on it terminates instead of hanging forever.
	errCh := make(chan error, 1)
	go func() {
		_, _, err := first.Pull()
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("superseded session still served a pull")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("superseded session left hanging (old outbox leaked)")
	}

	// The new session serves the slot.
	if _, _, err := second.Pull(); err != nil {
		t.Fatalf("new session pull: %v", err)
	}
	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1, 1}, 4)}
	if err := second.PushAndWait(grad, 0, 0); err != nil {
		t.Fatalf("new session push: %v", err)
	}
}

// TestDisconnectReleasesBarrierPeers pins the core deadlock fix at the
// server level: a worker that dies mid-round must not strand its BSP peers.
func TestDisconnectReleasesBarrierPeers(t *testing.T) {
	overCarriers(t, testDisconnectReleasesBarrierPeers)
}

func testDisconnectReleasesBarrierPeers(t *testing.T, carrier string) {
	policy := core.MustNewBSP(2)
	_, listener := startCarrier(t, carrier, policy, ServerConfig{})

	c0 := dialClient(t, listener, 0)
	c1 := dialClient(t, listener, 1)

	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1, 1}, 4)}
	okCh := make(chan error, 1)
	go func() { okCh <- c0.PushAndWait(grad, 0, 0) }()

	select {
	case err := <-okCh:
		t.Fatalf("BSP released worker 0 before the barrier: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Worker 1 crashes without pushing. Worker 0's barrier must complete.
	c1.Close()
	select {
	case err := <-okCh:
		if err != nil {
			t.Fatalf("released with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker 0 deadlocked on a crashed peer")
	}
}

// TestLeaseExpiryEvictsSilentWorker drives the elastic lease monitor: a
// worker that stops heartbeating while its connection stays open is evicted
// and its peers released.
func TestLeaseExpiryEvictsSilentWorker(t *testing.T) {
	overCarriers(t, testLeaseExpiryEvictsSilentWorker)
}

func testLeaseExpiryEvictsSilentWorker(t *testing.T, carrier string) {
	policy := core.MustNewBSP(2)
	srv, listener := startCarrier(t, carrier, policy, ServerConfig{
		Options: Options{
			Elastic:          true,
			HeartbeatTimeout: 100 * time.Millisecond,
		},
	})

	c0 := dialClient(t, listener, 0)
	stop0 := c0.StartHeartbeats(20 * time.Millisecond)
	defer stop0()
	// Worker 1 registers and then goes silent — connection open, no
	// heartbeats, no requests: a hung process.
	_ = dialClient(t, listener, 1)

	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1, 1}, 4)}
	okCh := make(chan error, 1)
	go func() { okCh <- c0.PushAndWait(grad, 0, 0) }()

	select {
	case err := <-okCh:
		if err != nil {
			t.Fatalf("released with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease monitor never evicted the silent worker")
	}
	if srv.Departures() == 0 {
		t.Error("eviction not counted as a departure")
	}
}

// TestHeartbeatsKeepSlowWorkerAlive is the inverse: a worker that computes
// for longer than the lease but heartbeats on time must NOT be evicted.
func TestHeartbeatsKeepSlowWorkerAlive(t *testing.T) {
	overCarriers(t, testHeartbeatsKeepSlowWorkerAlive)
}

func testHeartbeatsKeepSlowWorkerAlive(t *testing.T, carrier string) {
	policy := core.MustNewBSP(2)
	srv, listener := startCarrier(t, carrier, policy, ServerConfig{
		Options: Options{
			Elastic:          true,
			HeartbeatTimeout: 150 * time.Millisecond,
		},
	})

	c0 := dialClient(t, listener, 0)
	stop0 := c0.StartHeartbeats(30 * time.Millisecond)
	defer stop0()
	c1 := dialClient(t, listener, 1)
	stop1 := c1.StartHeartbeats(30 * time.Millisecond)
	defer stop1()

	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1, 1}, 4)}
	okCh := make(chan error, 1)
	go func() { okCh <- c0.PushAndWait(grad, 0, 0) }()

	// Worker 1 "computes" for 3 lease lengths, then pushes. The barrier
	// completes with both gradients — no eviction happened in between.
	time.Sleep(450 * time.Millisecond)
	if err := c1.PushAndWait(grad, 0, 0); err != nil {
		t.Fatalf("slow-but-alive worker rejected: %v", err)
	}
	if err := <-okCh; err != nil {
		t.Fatalf("worker 0: %v", err)
	}
	if got := srv.Departures(); got != 0 {
		t.Fatalf("heartbeating worker was evicted (%d departures)", got)
	}
	if got := srv.Pushes(); got != 2 {
		t.Fatalf("pushes = %d, want 2", got)
	}
}

// TestRejoinResumesTraining kills a worker mid-run and rejoins it on a fresh
// connection: the policy re-admits it and both workers finish the run.
func TestRejoinResumesTraining(t *testing.T) {
	policy := core.MustNewBSP(2)
	srv, listener := startElasticServer(t, policy, ServerConfig{Options: Options{Elastic: true}})

	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1, 1}, 4)}
	c0 := dialClient(t, listener, 0)
	c1 := dialClient(t, listener, 1)

	// Round 1 completes normally.
	okCh := make(chan error, 1)
	go func() { okCh <- c0.PushAndWait(grad, 0, 0) }()
	if err := c1.PushAndWait(grad, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := <-okCh; err != nil {
		t.Fatal(err)
	}

	// Worker 1 crashes; worker 0 pushes and is released by the departure.
	c1.Close()
	go func() { okCh <- c0.PushAndWait(grad, 1, 1) }()
	if err := <-okCh; err != nil {
		t.Fatalf("round with crashed peer: %v", err)
	}

	// Worker 1 rejoins with the last version it saw and the barrier is
	// two-wide again: worker 0 must block until the returnee pushes.
	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c1b := newClient(conn, 1)
	if err := c1b.Rejoin(1); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	go func() { okCh <- c0.PushAndWait(grad, 2, 2) }()
	select {
	case err := <-okCh:
		t.Fatalf("barrier ignored the rejoined worker: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := c1b.PushAndWait(grad, 2, 1); err != nil {
		t.Fatalf("rejoined push: %v", err)
	}
	if err := <-okCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Rejoins(); got != 1 {
		t.Fatalf("rejoins = %d, want 1", got)
	}

	// Both report done; the elastic server completes.
	if err := c0.Done(); err != nil {
		t.Fatal(err)
	}
	if err := c1b.Done(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.AllWorkersDone():
	case <-time.After(5 * time.Second):
		t.Fatal("AllWorkersDone never fired")
	}
}

// TestElasticCompletionWithPermanentDeparture: when a worker crashes for
// good, the elastic server completes once the survivors finish and the
// crashed worker's rejoin grace window (one heartbeat timeout) elapses.
func TestElasticCompletionWithPermanentDeparture(t *testing.T) {
	policy := core.MustNewASP(2)
	srv, listener := startElasticServer(t, policy, ServerConfig{
		Options: Options{
			Elastic:          true,
			HeartbeatTimeout: 100 * time.Millisecond,
		},
	})

	c0 := dialClient(t, listener, 0)
	c1 := dialClient(t, listener, 1)
	c1.Close() // crash, never returns

	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1, 1}, 4)}
	if err := c0.PushAndWait(grad, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c0.Done(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.AllWorkersDone():
	case <-time.After(5 * time.Second):
		t.Fatal("elastic server never completed after permanent departure")
	}
}

// TestGracefulLeaveNotifiesPolicy: MsgLeave removes the worker like a crash
// would, but by explicit request.
func TestGracefulLeaveNotifiesPolicy(t *testing.T) {
	policy := core.MustNewBSP(2)
	srv, listener := startElasticServer(t, policy, ServerConfig{})

	c0 := dialClient(t, listener, 0)
	c1 := dialClient(t, listener, 1)

	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1, 1}, 4)}
	okCh := make(chan error, 1)
	go func() { okCh <- c0.PushAndWait(grad, 0, 0) }()
	select {
	case err := <-okCh:
		t.Fatalf("released before the barrier: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := c1.conn.Send(transport.Message{Type: transport.MsgLeave, Worker: c1.worker}); err != nil {
		t.Fatal(err)
	}
	if err := <-okCh; err != nil {
		t.Fatal(err)
	}
	if got := srv.Departures(); got != 1 {
		t.Fatalf("departures = %d, want 1", got)
	}
}

// TestStaleSessionIsToldToRejoin: a request on a superseded session fails
// fast — either with the in-band rejoin hint or because the server closed
// the stale connection — instead of hanging on replies that will never come.
func TestStaleSessionIsToldToRejoin(t *testing.T) { overCarriers(t, testStaleSessionIsToldToRejoin) }

func testStaleSessionIsToldToRejoin(t *testing.T, carrier string) {
	policy := core.MustNewASP(1)
	_, listener := startCarrier(t, carrier, policy, ServerConfig{Options: Options{Elastic: true}})

	conn1, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	first := newClient(conn1, 0)
	if err := first.Register(); err != nil {
		t.Fatal(err)
	}
	_ = dialClient(t, listener, 0) // supersedes

	_, _, err = first.Pull()
	if err == nil {
		t.Fatal("stale session pull succeeded")
	}
	if !strings.Contains(err.Error(), "rejoin") && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("stale session pull error = %v, want a rejoin hint or a closed connection", err)
	}
}

// TestRegisteredCarriesStoreVersion: a (re)joining worker learns where the
// run is, which restarted workers use to resume staleness accounting.
func TestRegisteredCarriesStoreVersion(t *testing.T) {
	st, err := NewStoreSharded([]*tensor.Tensor{tensor.New(4)}, optimizer.NewSGD(1.0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply([]*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1, 1}, 4)}); err != nil {
		t.Fatal(err)
	}
	policy := core.MustNewASP(1)
	_, listener := startElasticServer(t, policy, ServerConfig{Store: st})

	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(transport.Message{Type: transport.MsgRegister, Worker: 0}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != transport.MsgRegistered || reply.Version != 1 {
		t.Fatalf("reply = %v version %d, want Registered at version 1", reply.Type, reply.Version)
	}
	conn.Close()
}
