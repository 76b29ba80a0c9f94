package ps

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// relayHarness stands up a root server fronted by relays over in-process
// channel transports: the smallest complete aggregation tree.
type relayHarness struct {
	server       *Server
	store        *Store
	rootListener *transport.ChanListener
	relays       []*Relay
	listeners    []*transport.ChanListener
}

func newRelayHarness(t *testing.T, policy core.Policy, st *Store, relays, fanout int, opts Options) *relayHarness {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Workers: policy.NumWorkers(),
		Policy:  policy,
		Store:   st,
		Options: opts,
		// Every push traced, so tests can read routed pushes' lifecycles.
		TraceEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := transport.NewChanListener()
	root.SetMeter(transport.NewMetrics(srv.Registry()))
	go func() { _ = srv.Serve(root) }()
	h := &relayHarness{server: srv, store: st, rootListener: root}
	t.Cleanup(func() {
		for _, r := range h.relays {
			r.Stop()
		}
		srv.Stop()
		for _, l := range h.listeners {
			l.Close()
		}
		root.Close()
	})
	for i := 0; i < relays; i++ {
		l := transport.NewChanListener()
		h.listeners = append(h.listeners, l)
		// The root's lease, when it has one, is the relay's lease on its
		// children too, and its upstream sessions heartbeat under it.
		relay, err := NewRelay(RelayConfig{
			Fanout:    fanout,
			Advertise: l.Addr(),
		}, parentDial(root.Dial), nil)
		if err != nil {
			t.Fatal(err)
		}
		h.relays = append(h.relays, relay)
		go func(r *Relay, l *transport.ChanListener) { _ = r.Serve(l) }(relay, l)
	}
	return h
}

// parentDial adapts a listener's dialer to the one NewRelay takes, which is
// handed RelayConfig.Parent.
func parentDial(dial func() (transport.Conn, error)) func(string) (transport.Conn, error) {
	return func(string) (transport.Conn, error) { return dial() }
}

// dial resolves an advertised address: a relay's listener, else the root.
func (h *relayHarness) dial(addr string) (transport.Conn, error) {
	for _, l := range h.listeners {
		if l.Addr() == addr {
			return l.Dial()
		}
	}
	return h.rootListener.Dial()
}

// childClient registers worker w through the relay the layout assigns it and
// returns the connection's Client: the one link of a Tree route.
func (h *relayHarness) childClient(t *testing.T, w int) *Client {
	t.Helper()
	c, err := Connect(Route{Dial: h.dial, Addr: h.rootListener.Addr(), Worker: w}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c.(*ClusterClient).links[0].client
}

// rawTrunk registers a relay trunk by hand on a fresh connection and joins
// children through it, for tests that speak the trunk's frames themselves.
func rawTrunk(t *testing.T, dial func() (transport.Conn, error), children ...int) transport.Conn {
	t.Helper()
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	joins := []transport.Message{{
		Type:    transport.MsgRegister,
		Relay:   true,
		Servers: []transport.ServerEntry{{Addr: "raw-trunk", ShardHi: len(children)}},
	}}
	for _, w := range children {
		joins = append(joins, transport.Message{Type: transport.MsgRegister, Worker: w})
	}
	for _, join := range joins {
		if err := conn.Send(join); err != nil {
			t.Fatal(err)
		}
		if ack, err := conn.Recv(); err != nil || ack.Type != transport.MsgRegistered {
			t.Fatalf("trunk registration %+v not acknowledged: %+v %v", join, ack, err)
		}
	}
	return conn
}

// testGrads returns a deterministic pseudo-random gradient for iteration it.
func testGrads(seed int64, it, size int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed + int64(it)*7919))
	g := tensor.New(size)
	for i := range g.Data() {
		g.Data()[i] = float32(rng.NormFloat64())
	}
	return []*tensor.Tensor{g}
}

// TestTreeStateAssignsContiguousRanges unit-tests the root's layout
// bookkeeping: relays claim the lowest uncovered worker runs, and a dead
// relay's coverage transfers to a survivor.
func TestTreeStateAssignsContiguousRanges(t *testing.T) {
	var ts treeState
	a := &session{}
	b := &session{}
	ts.add(a, "relay-a", 4, 8)
	ts.add(b, "relay-b", 4, 8)
	entries := ts.snapshot()
	if len(entries) != 2 {
		t.Fatalf("expected 2 entries, got %d", len(entries))
	}
	if entries[0].Addr != "relay-a" || entries[0].ShardLo != 0 || entries[0].ShardHi != 4 {
		t.Errorf("first entry %+v, want relay-a covering [0,4)", entries[0])
	}
	if entries[1].Addr != "relay-b" || entries[1].ShardLo != 4 || entries[1].ShardHi != 8 {
		t.Errorf("second entry %+v, want relay-b covering [4,8)", entries[1])
	}
	ts.remove(a)
	entries = ts.snapshot()
	total := 0
	for _, e := range entries {
		if e.Addr != "relay-b" {
			t.Errorf("dead relay's range went to %q, want relay-b", e.Addr)
		}
		total += e.ShardHi - e.ShardLo
	}
	if total != 8 {
		t.Errorf("surviving coverage spans %d workers, want 8", total)
	}
}

// TestRelaySerialScheduleBitIdentical pins the PR's equivalence claim: a
// serial push schedule through a relay produces bit-identical parameters to
// the same schedule against a bare server — the relay adds a hop, not
// arithmetic.
func TestRelaySerialScheduleBitIdentical(t *testing.T) {
	const iters = 12
	const size = 17
	run := func(tree bool) []float32 {
		init := []*tensor.Tensor{tensor.New(size)}
		st, err := NewStoreSharded(init, optimizer.NewSGDMomentum(0.1, 0.9), 1)
		if err != nil {
			t.Fatal(err)
		}
		policy := core.MustNewBSP(1)
		var client *Client
		if tree {
			h := newRelayHarness(t, policy, st, 1, 1, Options{})
			client = h.childClient(t, 0)
		} else {
			_, clients := startTestServer(t, policy, st)
			client = clients[0]
		}
		for it := 0; it < iters; it++ {
			_, version, err := client.Pull()
			if err != nil {
				t.Fatal(err)
			}
			if err := client.PushAndWait(testGrads(42, it, size), version, it); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.Done(); err != nil {
			t.Fatal(err)
		}
		params, version := st.Snapshot()
		if version != iters {
			t.Fatalf("final version %d, want %d", version, iters)
		}
		out := make([]float32, size)
		copy(out, params[0].Data())
		return out
	}
	flat := run(false)
	relayed := run(true)
	for i := range flat {
		if flat[i] != relayed[i] {
			t.Fatalf("param[%d] diverged: flat %v, relayed %v", i, flat[i], relayed[i])
		}
	}
}

// TestRelayAggregatesUnderBSP drives 4 workers through one fanout-4 relay
// under BSP and checks the policy still sees every logical push while the
// root's ingress shrinks to one frame per round.
func TestRelayAggregatesUnderBSP(t *testing.T) {
	const workers = 4
	const iters = 6
	const size = 9
	init := []*tensor.Tensor{tensor.New(size)}
	st, err := NewStoreSharded(init, optimizer.NewSGD(0.1), 1)
	if err != nil {
		t.Fatal(err)
	}
	h := newRelayHarness(t, core.MustNewBSP(workers), st, 1, workers, Options{})

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := h.childClient(t, w)
			defer client.Close()
			for it := 0; it < iters; it++ {
				_, version, err := client.Pull()
				if err != nil {
					errs <- err
					return
				}
				if err := client.PushAndWait(testGrads(int64(w), it, size), version, it); err != nil {
					errs <- err
					return
				}
			}
			errs <- client.Done()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	if got := int(h.server.Status().Pushes); got != workers*iters {
		t.Errorf("policy saw %d pushes, want %d", got, workers*iters)
	}
	if v := st.Version(); v != int64(workers*iters) {
		t.Errorf("store version %d, want %d", v, workers*iters)
	}
	snap := h.server.Registry().Snapshot()
	frames := snap[`dssp_transport_frames_total{dir="recv",type="Push"}`]
	if frames == 0 || frames > float64(iters+2) {
		// One partial per BSP round, with a little slack for watchdog
		// flushes around the start-of-run join race.
		t.Errorf("root received %v push frames for %d rounds, want about %d", frames, iters, iters)
	}
	if snap[`dssp_tree_partials_total`] != frames {
		t.Errorf("store accepted %v partials but root metered %v push frames",
			snap[`dssp_tree_partials_total`], frames)
	}
	stats := h.relays[0].Stats()
	if stats.ChildPushes != workers*iters {
		t.Errorf("relay counted %d child pushes, want %d", stats.ChildPushes, workers*iters)
	}
	if stats.ForwardedBytes >= stats.IngressBytes {
		t.Errorf("forwarded %d bytes >= ingress %d: no reduction", stats.ForwardedBytes, stats.IngressBytes)
	}
}

// TestRelayRejectsOutOfRangeChild checks the root refuses a worker
// registering through a relay that does not cover it.
func TestRelayRejectsOutOfRangeChild(t *testing.T) {
	st := testStore(t, 4)
	h := newRelayHarness(t, core.MustNewASP(2), st, 1, 2, Options{})
	conn, err := h.listeners[0].Dial()
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(conn, 7)
	if err := client.Register(); err == nil {
		t.Fatal("expected registration of uncovered worker 7 to fail")
	}
	client.Close()
}

// TestRelayRefusesChildDeltaPulls: a child's pulls through a relay are never
// gated — it names no version, and every pull gets the whole model —
// while the relay's own upstream replica session is: when nothing moved, the
// hop to the root carries one Unchanged frame and the child is served from
// the relay's cache.
func TestRelayRefusesChildDeltaPulls(t *testing.T) {
	st, err := NewStoreSharded(pipelineModel(31), optimizer.NewSGD(0.1), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Version 0 never gates.
	if _, err := st.Apply(pipelineGrads(rand.New(rand.NewSource(1)), pipelineModel(31))); err != nil {
		t.Fatal(err)
	}
	h := newRelayHarness(t, core.MustNewASP(1), st, 1, 1, Options{})
	conn, err := h.listeners[0].Dial()
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(conn, 0)
	defer client.Close()
	if err := client.Register(); err != nil {
		t.Fatal(err)
	}
	var perPull int64
	for i := 1; i <= 3; i++ {
		params, _, err := client.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := st.Snapshot(); !sameTensors(params, want) {
			t.Fatalf("pull %d diverges from the store", i)
		}
		_, pulled := client.Traffic()
		if i == 1 {
			perPull = pulled
		}
		if pulled != int64(i)*perPull {
			t.Fatalf("pull %d: %d bytes pulled in all, want %d full pulls of %d", i, pulled, i, perPull)
		}
	}
	// The root meters a frame before the relay can read it.
	weights := `dssp_transport_frames_total{dir="sent",type="Weights"}`
	m := h.server.Registry().Snapshot()
	if got := m["dssp_pull_unchanged_total"]; got != 2 {
		t.Fatalf("the root answered %v of the relay's upstream pulls Unchanged, want 2", got)
	}
	if got := m[weights]; got != 3 {
		t.Fatalf("the root sent %v Weights frames to the relay, want 3: one full reply frame and two Unchanged frames", got)
	}
}

// TestRelayAdmissionRequiresSumAggregation checks the root rejects relay
// trunks when the configured aggregator cannot decompose a summed partial.
func TestRelayAdmissionRequiresSumAggregation(t *testing.T) {
	st := testStore(t, 4)
	srv, err := NewServer(ServerConfig{
		Workers: 2,
		Policy:  core.MustNewASP(2),
		Store:   st,
		Options: Options{Aggregator: AggregatorConfig{Kind: AggTrimmedMean}},
	})
	if err != nil {
		t.Fatal(err)
	}
	root := transport.NewChanListener()
	go func() { _ = srv.Serve(root) }()
	defer func() {
		srv.Stop()
		root.Close()
	}()
	_, err = NewRelay(RelayConfig{Fanout: 2, Advertise: "x"}, parentDial(root.Dial), nil)
	if err == nil {
		t.Fatal("expected relay admission to fail under a robust aggregator")
	}
}

// TestRelayDeathSweepsSubtree kills a relay mid-run and checks the root
// notices: the trunk's children are swept as departures so a BSP-style
// barrier cannot deadlock on them, and the surviving direct worker finishes.
func TestRelayDeathSweepsSubtree(t *testing.T) {
	const size = 5
	init := []*tensor.Tensor{tensor.New(size)}
	st, err := NewStoreSharded(init, optimizer.NewSGD(0.1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// SSP with slack: worker 2 connects straight to the root; workers 0 and
	// 1 ride the relay that dies.
	h := newRelayHarness(t, core.MustNewSSP(3, 2), st, 1, 2, Options{Lease: 5 * time.Second})

	c0 := h.childClient(t, 0)
	defer c0.Close()
	c1 := h.childClient(t, 1)
	defer c1.Close()
	for w, c := range []*Client{c0, c1} {
		_, v, err := c.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PushAndWait(testGrads(int64(w), 0, size), v, 0); err != nil {
			t.Fatal(err)
		}
	}

	rootConn, err := h.rootListener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c2 := newClient(rootConn, 2)
	if err := c2.Register(); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	h.relays[0].Stop()

	// The root must sweep workers 0 and 1 off the roster: the lone direct
	// worker can then run to completion without tripping the slack bound.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if h.server.Status().Departures >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := h.server.Status().Departures; d < 2 {
		t.Fatalf("root recorded %d departures after relay death, want >= 2", d)
	}
	for it := 0; it < 8; it++ {
		_, version, err := c2.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.PushAndWait(testGrads(2, it, size), version, it); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestTrunkSpeaksOnlyForSlotsItRoutes pins the route check on everything a
// trunk forwards, not only MsgLeave: once child 0 has re-parented to the root
// itself, a partial entry and a Done still naming it on the old trunk are
// void — the policy already counts worker 0 on its direct session, which has
// pushed nothing and must not be handed an OK, a clock tick or a completion
// for the stale forward.
func TestTrunkSpeaksOnlyForSlotsItRoutes(t *testing.T) {
	var released atomic.Int64
	t.Cleanup(transport.SetReleaseHook(func([]byte) { released.Add(1) }))
	st := testStore(t, 2048)
	policy := core.MustNewASP(2)
	srv, err := NewServer(ServerConfig{Workers: 2, Policy: policy, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	// Over TCP with a frame past 4 KB, so the void push holds a leased receive
	// buffer it must give back.
	_, dial := endpoint(t, true, func(l transport.Listener) { _ = srv.Serve(l) })
	trunk := rawTrunk(t, dial, 0)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	direct := newClient(conn, 0)
	if err := direct.Register(); err != nil { // deletes the trunk's route for slot 0
		t.Fatal(err)
	}
	defer direct.Close()

	before := released.Load()
	for _, stale := range []transport.Message{
		{
			Type:        transport.MsgPush,
			PushEntries: []transport.PushEntry{{Worker: 0}},
			Tensors:     transport.ToWireOwned([]*tensor.Tensor{tensor.Full(0.1, 2048)}),
		},
		{Type: transport.MsgDone, Worker: 0},
		// The connection is served in order, so this join's acknowledgement
		// means both stale forwards have been handled.
		{Type: transport.MsgRegister, Worker: 1},
	} {
		if err := trunk.Send(stale); err != nil {
			t.Fatal(err)
		}
	}
	if ack, err := trunk.Recv(); err != nil || ack.Type != transport.MsgRegistered || ack.Worker != 1 {
		t.Fatalf("trunk's next frame is %+v (%v), want child 1's Registered: nothing answers a void push", ack, err)
	}
	if n := released.Load() - before; n != 1 {
		t.Errorf("the void push's receive buffer was released %d times, want exactly 1", n)
	}
	if c := policy.Clock(0); c != 0 {
		t.Errorf("policy counted %d pushes for worker 0, want 0: the entry's carrier was not the trunk", c)
	}
	if srv.Status().Pushes != 0 || st.Version() != 0 {
		t.Errorf("void push applied: %d pushes, store version %d", srv.Status().Pushes, st.Version())
	}
	if f := srv.Status().Finished; f != 0 {
		t.Errorf("stale Done finished %d workers, want 0", f)
	}
	// The successor session's first reply must be its pull's weights — not an
	// OK for a push it never made.
	if _, v, err := direct.Pull(); err != nil || v != 0 {
		t.Fatalf("direct worker 0's first pull: version %d, %v", v, err)
	}
}

// TestRelayWatchdogFlushesStalledSiblingsPartial: a child that is registered
// but not pushing (slow hardware, a late joiner) holds its sibling's partial
// back only until the watchdog forwards it incomplete — and no sooner than
// DefaultRelayFlushInterval after the push that opened it.
func TestRelayWatchdogFlushesStalledSiblingsPartial(t *testing.T) {
	h := newRelayHarness(t, core.MustNewASP(2), testStore(t, 4), 1, 2, Options{})
	pusher := h.childClient(t, 0)
	defer pusher.Close()
	defer h.childClient(t, 1).Close() // never pushes

	released := make(chan error, 1)
	start := time.Now()
	go func() { released <- pusher.PushAndWait([]*tensor.Tensor{tensor.Full(0.1, 4)}, 0, 0) }()
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the pusher's partial never left the relay")
	}
	if waited := time.Since(start); waited < DefaultRelayFlushInterval {
		t.Errorf("the stalled sibling's partial left after %v, before the %v watchdog interval", waited, DefaultRelayFlushInterval)
	}
	snap := h.relays[0].Registry().Snapshot()
	if n := snap[`dssp_relay_flushes_total{reason="watchdog"}`]; n != 1 {
		t.Errorf("watchdog flushes = %v, want 1", n)
	}
	if n := snap[`dssp_relay_forwarded_pushes_total`]; n != 1 {
		t.Errorf("forwarded partials = %v, want 1", n)
	}
}

// TestRelayStalledChildDoesNotDelaySiblingOK: a child that pushes but never
// reads fills its own connection and outbox with the OKs it is owed; the trunk
// demultiplexer must keep delivering its sibling's.
func TestRelayStalledChildDoesNotDelaySiblingOK(t *testing.T) {
	h := newRelayHarness(t, core.MustNewASP(2), testStore(t, 4), 1, 2, Options{})
	stalled, err := h.listeners[0].Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := stalled.Send(transport.Message{Type: transport.MsgRegister, Worker: 0}); err != nil {
		t.Fatal(err)
	}
	if ack, err := stalled.Recv(); err != nil || ack.Type != transport.MsgRegistered {
		t.Fatalf("registration answered %+v, %v", ack, err)
	}
	sibling := h.childClient(t, 1)
	defer sibling.Close()

	// More OKs than the channel transport buffers for a reader that is not
	// reading (64): each push flushes its predecessor upstream as the child's
	// duplicate, and the root answers every one.
	const pushes = 70
	grad := transport.ToWireOwned([]*tensor.Tensor{tensor.Full(0.1, 4)})
	for it := 0; it < pushes; it++ {
		if err := stalled.Send(transport.Message{Type: transport.MsgPush, Worker: 0, Iteration: it, Tensors: grad}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for int(h.server.Status().Pushes) < pushes-1 {
		if time.Now().After(deadline) {
			t.Fatalf("root applied %d of the stalled child's pushes, want %d", h.server.Status().Pushes, pushes-1)
		}
		time.Sleep(time.Millisecond)
	}
	released := make(chan error, 1)
	go func() { released <- sibling.PushAndWait([]*tensor.Tensor{tensor.Full(0.1, 4)}, 0, 0) }()
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the sibling's OK is stuck behind the stalled child's")
	}
}

// pinRelay starts the fanout-1 relay TestRelayTrunkFramePin drives, dialing
// the root with dial and metering onto reg.
func pinRelay(t *testing.T, dial func() (transport.Conn, error), reg *obs.Registry) *Relay {
	t.Helper()
	relay, err := NewRelay(RelayConfig{
		Fanout:    1,
		Advertise: "pin-relay",
	}, parentDial(dial), reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Stop)
	return relay
}

// TestRelayTrunkFramePin pins what a relay sends its root, frame type by
// frame type, over a serial run: one child through a fanout-1 relay for a
// fixed number of iterations, with the trunk on the channel carrier and on
// the same-host lane, dense and fp16 with compressed pulls. The root's meter
// counts every frame it receives (the trunk's, and the pulls of the relay's
// replica session), and the relay's own meter the partials it sent from the
// trunk's push slot without a copy.
func TestRelayTrunkFramePin(t *testing.T) {
	const iters = 6
	const size = 8192 // a 32 KiB push body, past the lane's in-place threshold
	fp16 := compress.Config{Codec: compress.FP16, Pull: true}
	// pin is the root's receive side of the run: the trunk's and the
	// replica's registrations and the forwarded child's, one pull per
	// iteration from the replica, one partial per iteration of pushBytes in
	// all, and the forwarded Done; inPlace is the relay's in-place count.
	pin := func(pushBytes, inPlace float64) map[string]float64 {
		return map[string]float64{
			`dssp_transport_frames_total{dir="recv",type="Register"}`: 3,
			`dssp_transport_bytes_total{dir="recv",type="Register"}`:  90,
			`dssp_transport_frames_total{dir="recv",type="Pull"}`:     iters,
			`dssp_transport_bytes_total{dir="recv",type="Pull"}`:      108,
			`dssp_transport_frames_total{dir="recv",type="Push"}`:     iters,
			`dssp_transport_bytes_total{dir="recv",type="Push"}`:      pushBytes,
			`dssp_transport_frames_total{dir="recv",type="Done"}`:     1,
			`dssp_transport_bytes_total{dir="recv",type="Done"}`:      12,
			"dssp_transport_lane_in_place_total":                      inPlace,
		}
	}
	for _, tc := range []struct {
		name  string
		lane  bool
		codec compress.Config
		want  map[string]float64
	}{
		{"channel/dense", false, compress.Config{}, pin(197006, 0)},
		{"channel/fp16", false, fp16, pin(98752, 0)},
		// The first partial is based on version 0, whose push lays its body
		// out differently from the slot's template, and is copied.
		{"lane/dense", true, compress.Config{}, pin(197006, iters-1)},
		{"lane/fp16", true, fp16, pin(98752, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStoreSharded([]*tensor.Tensor{tensor.New(size)}, optimizer.NewSGD(0.1), 1)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewBSP(1), Store: st,
				Options: Options{Compression: tc.codec}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Stop)
			rootMeter := transport.NewMetrics(srv.Registry())
			relayReg := obs.NewRegistry()
			relayMeter := transport.NewMetrics(relayReg)
			var root transport.Listener
			dial := func() (transport.Conn, error) {
				return transport.DialWireMetered(root.Addr(), transport.WireBinary, relayMeter)
			}
			if tc.lane {
				if root, err = transport.ListenWireMetered("127.0.0.1:0", transport.WireBinary, rootMeter); err != nil {
					t.Fatal(err)
				}
			} else {
				l := transport.NewChanListener()
				l.SetMeter(rootMeter)
				root, dial = l, l.Dial
			}
			t.Cleanup(func() { root.Close() })
			go func() { _ = srv.Serve(root) }()

			relay := pinRelay(t, dial, relayReg)
			children := transport.NewChanListener()
			t.Cleanup(func() { children.Close() })
			go func() { _ = relay.Serve(children) }()
			conn, err := children.Dial()
			if err != nil {
				t.Fatal(err)
			}
			child, err := NewClientCompressed(conn, 0, compress.Config{Codec: compress.Auto})
			if err != nil {
				t.Fatal(err)
			}
			defer child.Close()
			if err := child.Register(); err != nil {
				t.Fatal(err)
			}
			for it := 0; it < iters; it++ {
				_, v, err := child.Pull()
				if err != nil {
					t.Fatal(err)
				}
				if err := child.PushAndWait(testGrads(9, it, size), v, it); err != nil {
					t.Fatal(err)
				}
			}
			if err := child.Done(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-srv.AllWorkersDone():
			case <-time.After(10 * time.Second):
				t.Fatal("the root never saw the child's Done")
			}

			got := map[string]float64{
				"dssp_transport_lane_in_place_total": relayReg.Snapshot()["dssp_transport_lane_in_place_total"],
			}
			for k, v := range srv.Registry().Snapshot() {
				if strings.HasPrefix(k, `dssp_transport_frames_total{dir="recv"`) || strings.HasPrefix(k, `dssp_transport_bytes_total{dir="recv"`) {
					got[k] = v
				}
			}
			for k, v := range tc.want {
				if got[k] != v {
					t.Errorf("%s = %v, want %v", k, got[k], v)
				}
			}
			for k, v := range got {
				if _, ok := tc.want[k]; !ok && v != 0 {
					t.Errorf("unpinned %s = %v", k, v)
				}
			}
		})
	}
}

// recvFails reports whether a Recv on conn fails within five seconds — the
// connection was closed under it — rather than delivering a frame or blocking.
func recvFails(conn transport.Conn) bool {
	got := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		return err != nil
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestRelayFailsWhenRootDiesMidRun: a root that goes while a child is still
// training takes the relay down with an error, and the child's connection
// closes so that it can re-parent instead of hanging.
func TestRelayFailsWhenRootDiesMidRun(t *testing.T) {
	h := newRelayHarness(t, core.MustNewASP(1), testStore(t, 4), 1, 1, Options{})
	child := h.childClient(t, 0)
	defer child.Close()
	h.server.Stop()
	relay := h.relays[0]
	select {
	case <-relay.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the relay outlived its root")
	}
	if relay.Err() == nil {
		t.Error("a relay whose root died under an unfinished child reports no error")
	}
	if !recvFails(child.conn) {
		t.Error("the child's connection stayed open after its relay stopped")
	}
}

// TestRelayEndsCleanlyWhenRootClosesAfterRun: a root closing the trunk after
// every child this relay served reported Done is the normal end of a run, and
// the relay stops without an error.
func TestRelayEndsCleanlyWhenRootClosesAfterRun(t *testing.T) {
	h := newRelayHarness(t, core.MustNewASP(1), testStore(t, 4), 1, 1, Options{})
	child := h.childClient(t, 0)
	defer child.Close()
	if err := child.Done(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.server.AllWorkersDone():
	case <-time.After(5 * time.Second):
		t.Fatal("the root never saw the child's Done")
	}
	h.server.Stop()
	relay := h.relays[0]
	select {
	case <-relay.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the relay outlived its root")
	}
	if err := relay.Err(); err != nil {
		t.Errorf("relay stopped with %v after a completed run, want nil", err)
	}
}

// relayChildren serves relay on the carrier endpoint picks (tcp: a socket,
// the lane unless the test turned it off) and registers n children through
// it, workers 0..n-1.
func relayChildren(t *testing.T, relay *Relay, tcp bool, n int) []*Client {
	t.Helper()
	_, dial := endpoint(t, tcp, func(l transport.Listener) { _ = relay.Serve(l) })
	clients := make([]*Client, n)
	for w := range clients {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		clients[w] = newClient(conn, w)
		t.Cleanup(func() { clients[w].Close() })
		if err := clients[w].Register(); err != nil {
			t.Fatal(err)
		}
	}
	return clients
}

// waitPartial waits until cond holds of the relay's pending partial, read
// under the relay's lock, and fails with what after five seconds.
func waitPartial(t *testing.T, relay *Relay, what string, cond func(*relayPartial) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		relay.mu.Lock()
		ok := cond(relay.partial)
		relay.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// held reports whether p holds its window's first push on its receive lease,
// unsummed.
func held(p *relayPartial) bool { return p != nil && p.sum == nil && p.firstGrads != nil }

// TestRelayFoldBitIdenticalToCopyThenAdd: the relay's fold — the window's
// first push held, the second summed with it in one pass, later ones added —
// lands on the root bit for bit where a flat server pushed the copy-then-add
// sum of the same gradients, with the same entries, does; at fanout 2 and 3,
// with both of the relay's hops on the channel transport, TCP and the lane.
// On the lane the fold's sum is written in the trunk's push slot and sent
// from it without a copy.
func TestRelayFoldBitIdenticalToCopyThenAdd(t *testing.T) {
	const size = 8192 + 5 // past the lane's in-place threshold, and a tail past the eight-wide windows
	initial := func() []*tensor.Tensor { return testGrads(3, 0, size) }
	for _, carrier := range []string{"channel", "tcp", "lane"} {
		for _, fanout := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/fanout=%d", carrier, fanout), func(t *testing.T) {
				if carrier == "tcp" {
					t.Cleanup(transport.SetLaneEnabled(false))
				}
				socket := carrier != "channel"
				grads := make([][]*tensor.Tensor, fanout)
				entries := make([]transport.PushEntry, fanout)
				workers := make([]int, fanout)
				for w := range grads {
					grads[w] = testGrads(int64(11+w), 1, size)
					entries[w] = transport.PushEntry{Worker: w, Version: 1, Iteration: 1}
					workers[w] = w
				}

				// The tree: each child pushes once the previous one is in
				// the window, so the fold's order is the workers'.
				st, err := NewStoreSharded(initial(), optimizer.NewSGD(0.1), 1)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewServer(ServerConfig{Workers: fanout, Policy: core.MustNewASP(fanout), Store: st})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Stop)
				relayReg := obs.NewRegistry()
				_, dialRoot := meteredEndpoint(t, socket, transport.NewMetrics(relayReg), func(l transport.Listener) { _ = srv.Serve(l) })
				relay, err := NewRelay(RelayConfig{Fanout: fanout, Advertise: "relay"}, parentDial(dialRoot), relayReg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(relay.Stop)
				children := relayChildren(t, relay, socket, fanout)
				for w, c := range children {
					if err := c.pushAsync(grads[w], nil, 1, 1); err != nil {
						t.Fatal(err)
					}
					switch {
					case w == 0:
						waitPartial(t, relay, "the first push never opened a window", func(p *relayPartial) bool { return p != nil })
						waitPartial(t, relay, "the window's first push was copied, not held", held)
					case w < fanout-1:
						waitPartial(t, relay, fmt.Sprintf("push %d never folded", w), func(p *relayPartial) bool {
							return p != nil && len(p.entries) == w+1 && p.sum != nil && p.firstGrads == nil
						})
					}
				}
				for _, c := range children {
					if err := c.waitOK(); err != nil {
						t.Fatal(err)
					}
				}
				if !st.WaitApplied(int64(fanout), nil) {
					t.Fatal("the root never applied the partial")
				}
				tree, _ := st.Snapshot()
				wantInPlace := 0.0
				if carrier == "lane" {
					wantInPlace = 1
				}
				if n := relayReg.Snapshot()["dssp_transport_lane_in_place_total"]; n != wantInPlace {
					t.Errorf("partials sent from the trunk's push slot = %v, want %v", n, wantInPlace)
				}

				// The flat reference: the copy-then-add sum, pushed by hand
				// as a trunk's partial carrying the same entries.
				want := grads[0][0].Clone()
				for _, g := range grads[1:] {
					want.Add(g[0])
				}
				flatStore, err := NewStoreSharded(initial(), optimizer.NewSGD(0.1), 1)
				if err != nil {
					t.Fatal(err)
				}
				flat, err := NewServer(ServerConfig{Workers: fanout, Policy: core.MustNewASP(fanout), Store: flatStore})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(flat.Stop)
				_, dialFlat := endpoint(t, false, func(l transport.Listener) { _ = flat.Serve(l) })
				trunk := rawTrunk(t, dialFlat, workers...)
				if err := trunk.Send(transport.Message{
					Type:        transport.MsgPush,
					Version:     1,
					Iteration:   1,
					PushEntries: entries,
					Tensors:     transport.ToWireOwned([]*tensor.Tensor{want}),
				}); err != nil {
					t.Fatal(err)
				}
				if !flatStore.WaitApplied(int64(fanout), nil) {
					t.Fatal("the flat server never applied the sum")
				}
				ref, _ := flatStore.Snapshot()
				for i, v := range ref[0].Data() {
					if got := tree[0].Data()[i]; math.Float32bits(got) != math.Float32bits(v) {
						t.Fatalf("param[%d]: tree %v, flat copy-then-add %v", i, got, v)
					}
				}
			})
		}
	}
}

// TestRelayStopReleasesTheHeldFirstPush: a window's first push, held on its
// receive lease until a sibling's arrives, can never be summed once the relay
// stops; Stop ends the lease and drops the partial.
func TestRelayStopReleasesTheHeldFirstPush(t *testing.T) {
	const size = 8192 // a 32 KiB push body: received into a leased buffer
	srv, err := NewServer(ServerConfig{Workers: 2, Policy: core.MustNewASP(2), Store: testStore(t, size)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	_, dialRoot := endpoint(t, false, func(l transport.Listener) { _ = srv.Serve(l) })
	relay, err := NewRelay(RelayConfig{Fanout: 2, Advertise: "relay"}, parentDial(dialRoot), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Stop)
	clients := relayChildren(t, relay, false, 2)
	// Child 1 never pushes, so child 0's push waits for it, held.
	if err := clients[0].pushAsync(testGrads(1, 1, size), nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	waitPartial(t, relay, "child 0's push was never held", held)
	relay.mu.Lock()
	heldData := unsafe.Pointer(unsafe.SliceData(relay.partial.firstGrads[0].Data()))
	relay.mu.Unlock()
	var sawHeld atomic.Bool
	t.Cleanup(transport.SetReleaseHook(func(body []byte) {
		start := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
		if p := uintptr(heldData); p >= start && p < start+uintptr(len(body)) {
			sawHeld.Store(true)
		}
	}))
	// The children's sessions leave the table first, as superseded ones do,
	// so that their connections' deaths depart nobody and flush nothing: the
	// held push is Stop's to find.
	for _, sess := range relay.sessions.list() {
		relay.sessions.drop(sess)
	}
	relay.Stop()
	relay.mu.Lock()
	partial := relay.partial
	relay.mu.Unlock()
	if !sawHeld.Load() {
		t.Error("Stop kept the held push's receive lease")
	}
	if partial != nil {
		t.Error("Stop kept the partial holding the first push")
	}
}

// TestRelayStopDropsTheTrunkSlotPartial: a partial summing in the trunk's
// lane push slot when the relay stops can never be sent; Stop drops it with
// the slot, and nothing hands the unmapped slot out afterwards.
func TestRelayStopDropsTheTrunkSlotPartial(t *testing.T) {
	const size = 8192 // a 32 KiB push body: the lane places a push slot for it
	srv, err := NewServer(ServerConfig{Workers: 3, Policy: core.MustNewASP(3), Store: testStore(t, size)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	_, dialRoot := endpoint(t, true, func(l transport.Listener) { _ = srv.Serve(l) })
	relay, err := NewRelay(RelayConfig{Fanout: 3, Advertise: "relay"}, parentDial(dialRoot), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Stop)
	clients := relayChildren(t, relay, false, 3)
	// Children 0 and 1 push, child 2 never does, so their partial waits for
	// it in the slot: the second push sums the held first one into it.
	if err := clients[0].pushAsync(testGrads(1, 1, size), nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	waitPartial(t, relay, "child 0's push was never held", held)
	if err := clients[1].pushAsync(testGrads(2, 1, size), nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	waitPartial(t, relay, "child 1's push never summed the partial into the trunk slot", func(p *relayPartial) bool {
		return p != nil && p.inSlot
	})
	// The children's sessions leave the table first, as superseded ones do,
	// so that their connections' deaths depart nobody and flush nothing: the
	// partial is Stop's to find.
	for _, sess := range relay.sessions.list() {
		relay.sessions.drop(sess)
	}
	relay.Stop()
	relay.mu.Lock()
	partial, views := relay.partial, relay.trunk.slot.views
	relay.mu.Unlock()
	if partial != nil {
		t.Error("Stop kept the partial summing in the ended trunk slot")
	}
	if views != nil {
		t.Error("Stop left the trunk slot mapped")
	}
	// A late push finds the relay gone instead of the slot.
	_ = clients[2].pushAsync(testGrads(3, 1, size), nil, 1, 1)
	if relay.trunk.PushSlot(testGrads(3, 1, size)) != nil {
		t.Error("the ended trunk slot was handed out again")
	}
}
