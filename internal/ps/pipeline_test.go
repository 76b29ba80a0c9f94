package ps

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// stepGate holds the applier inside its first optimizer step (stepHook)
// while more pushes pile up behind it — the deterministic way to force
// coalescing — and counts the steps taken. It holds one shard's step and
// counts every shard's: every other step, a sibling shard's included, runs
// while the first is held.
type stepGate struct {
	entered chan struct{} // closed when the first step begins
	resume  chan struct{} // the first step blocks until this closes
	held    *shard        // the shard whose step is held, set before entered closes
	steps   atomic.Int64
}

// gateSteps installs a stepGate over every store as the package's step hook
// for the rest of the test.
func gateSteps(t *testing.T) *stepGate { return gateStoreSteps(t, nil) }

// gateStoreSteps is gateSteps over st's shards alone (every store's when st
// is nil): another store in the process steps freely.
func gateStoreSteps(t *testing.T, st *Store) *stepGate {
	g := &stepGate{entered: make(chan struct{}), resume: make(chan struct{})}
	var first atomic.Bool
	stepHook = func(sh *shard) {
		if st != nil && !slices.Contains(st.shards, sh) {
			return
		}
		g.steps.Add(1)
		if first.CompareAndSwap(false, true) {
			g.held = sh
			close(g.entered)
			<-g.resume
		}
	}
	t.Cleanup(func() {
		stepHook = nil
		// A test that failed with the step held must not leave its servers'
		// Stop waiting on it.
		select {
		case <-g.resume:
		default:
			close(g.resume)
		}
	})
	return g
}

// stepSerial takes one optimizer step over params in place from one push's
// gradients: the serial reference the store's appliers are held to.
func stepSerial(opt *optimizer.SGD, params, grads []*tensor.Tensor) {
	opt.StepFrom(params, params, [][]tensor.Grad{float32Grads(grads)})
}

// pipelineModel builds a small multi-tensor parameter set with seeded values.
func pipelineModel(seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	return []*tensor.Tensor{
		tensor.New(8, 6).RandNormal(rng, 0, 1),
		tensor.New(11).RandNormal(rng, 0, 1),
		tensor.New(4, 3).RandNormal(rng, 0, 1),
	}
}

func pipelineGrads(rng *rand.Rand, model []*tensor.Tensor) []*tensor.Tensor {
	grads := make([]*tensor.Tensor, len(model))
	for i, p := range model {
		grads[i] = tensor.New(p.Shape()...).RandNormal(rng, 0, 0.1)
	}
	return grads
}

// TestPipelinedApplyBitIdenticalToSerialReference pins the bit-identity
// contract: on a deterministic schedule — each Apply waits before the next
// starts, so no batch ever holds more than one push — the pipelined
// per-shard appliers must produce exactly the bytes the serial path did.
// The reference steps a single optimizer over cloned parameters by hand.
func TestPipelinedApplyBitIdenticalToSerialReference(t *testing.T) {
	initial := pipelineModel(7)
	st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.05, 0.9), len(initial))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ref := make([]*tensor.Tensor, len(initial))
	for i, p := range initial {
		ref[i] = p.Clone()
	}
	refOpt := optimizer.NewSGDMomentum(0.05, 0.9)

	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 40; step++ {
		grads := pipelineGrads(rng, initial)
		v, err := st.Apply(grads)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(step+1) {
			t.Fatalf("step %d: version %d, want %d", step, v, step+1)
		}
		stepSerial(refOpt, ref, grads)
	}

	got, version := st.Snapshot()
	if version != 40 {
		t.Fatalf("final version %d, want 40", version)
	}
	if !sameTensors(got, ref) {
		t.Fatal("pipelined apply diverged bit-wise from the serial reference on a deterministic schedule")
	}
}

// TestCoalescedApplyBatchesQueuedPushes holds the single applier inside its
// first optimizer step while more pushes are enqueued, then proves the
// backlog was absorbed in fewer steps than pushes (coalescing), that the
// version advanced by the exact push count, and that the weights match the
// summed-gradient semantics within float tolerance.
func TestCoalescedApplyBatchesQueuedPushes(t *testing.T) {
	initial := pipelineModel(3)
	gate := gateSteps(t)
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rng := rand.New(rand.NewSource(5))
	first := pipelineGrads(rng, initial)
	t1, err := st.EnqueueApply(first)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // the applier is now stuck inside push 1's step

	const queued = 6
	grads := make([][]*tensor.Tensor, queued)
	for i := range grads {
		grads[i] = pipelineGrads(rng, initial)
		if _, err := st.EnqueueApply(grads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Reserved(); got != 1+queued {
		t.Fatalf("reserved %d, want %d", got, 1+queued)
	}
	if got := st.Version(); got != 0 {
		t.Fatalf("version %d before any apply finished, want 0", got)
	}
	close(gate.resume)
	if !st.WaitApplied(1+queued, nil) {
		t.Fatal("WaitApplied returned false without cancel")
	}
	if got := st.Version(); got != 1+queued {
		t.Fatalf("version %d after drain, want %d", got, 1+queued)
	}
	_ = t1
	steps := gate.steps.Load()
	if steps >= 1+queued {
		t.Fatalf("took %d optimizer steps for %d pushes; expected coalescing to batch the backlog", steps, 1+queued)
	}
	if steps < 2 {
		t.Fatalf("took %d optimizer steps, want at least the gated one plus one batch", steps)
	}

	// Plain SGD: k serial steps and one summed step agree up to float
	// associativity.
	ref := make([]*tensor.Tensor, len(initial))
	refOpt := optimizer.NewSGD(0.5)
	for i, p := range initial {
		ref[i] = p.Clone()
	}
	stepSerial(refOpt, ref, first)
	for _, g := range grads {
		stepSerial(refOpt, ref, g)
	}
	got, _ := st.Snapshot()
	for i := range got {
		if !got[i].ApproxEqual(ref[i], 1e-4) {
			t.Fatalf("tensor %d diverged beyond tolerance from the serial reference under coalescing", i)
		}
	}
}

// TestStoreCloseDrainsAndRestarts pins Close's contract: every accepted
// ticket is applied before Close returns, and a later apply restarts the
// pipeline transparently.
func TestStoreCloseDrainsAndRestarts(t *testing.T) {
	initial := pipelineModel(9)
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.1), len(initial))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if _, err := st.EnqueueApply(pipelineGrads(rng, initial)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if v, r := st.Version(), st.Reserved(); v != r || v != 10 {
		t.Fatalf("after Close: version %d, reserved %d, want both 10", v, r)
	}
	st.Close() // idempotent
	if v, err := st.Apply(pipelineGrads(rng, initial)); err != nil || v != 11 {
		t.Fatalf("apply after Close: version %d, err %v, want 11, nil", v, err)
	}
	st.Close()
}

// TestWaitAppliedCancel pins the cancel path: a waiter whose target never
// arrives unblocks when its cancel channel closes, reporting false.
func TestWaitAppliedCancel(t *testing.T) {
	st := testStore(t, 4)
	cancel := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- st.WaitApplied(5, cancel) }()
	select {
	case <-done:
		t.Fatal("WaitApplied returned before cancel with nothing applied")
	case <-time.After(20 * time.Millisecond):
	}
	close(cancel)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("cancelled WaitApplied reported success")
		}
	case <-time.After(time.Second):
		t.Fatal("WaitApplied ignored cancel")
	}
}

// TestApplyReturnPermitsBufferReuseUnderConcurrency pins EnqueueApply's
// ordering contract under concurrent direct Store.Apply callers (the server
// path is additionally serialized by policyMu; checkpoint restore and
// library users are not): ticket assignment and per-shard queue insertion
// are one atomic step, so queues hold pushes in ticket order and a returned
// Apply means that push is absorbed on every shard. Each worker therefore
// poisons its gradient buffers the moment Apply returns; if an interleaved
// enqueue ever let a later ticket's apply wake an earlier, still-queued
// ticket, a poisoned buffer would reach an optimizer step (and under -race
// the poisoning write would race the applier's read).
func TestApplyReturnPermitsBufferReuseUnderConcurrency(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(16, 4), tensor.New(33), tensor.New(7, 3)}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(1.0), len(initial))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const workers = 8
	const rounds = 60
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			grads := make([]*tensor.Tensor, len(initial))
			for i, p := range initial {
				grads[i] = tensor.New(p.Shape()...)
			}
			for r := 0; r < rounds; r++ {
				for _, g := range grads {
					g.Fill(1)
				}
				if _, err := st.Apply(grads); err != nil {
					t.Error(err)
					return
				}
				for _, g := range grads {
					g.Fill(1e6)
				}
			}
		}()
	}
	wg.Wait()
	st.Close()

	params, version := st.Snapshot()
	if version != workers*rounds {
		t.Fatalf("final version %d, want %d", version, workers*rounds)
	}
	// lr=1 plain SGD over all-ones gradients: every element moved by exactly
	// -1 per push (sums of small integers are exact in float32).
	want := float32(-(workers * rounds))
	for i, p := range params {
		for j, v := range p.Data() {
			if v != want {
				t.Fatalf("param %d[%d] = %v, want %v — a reused gradient buffer reached an optimizer step", i, j, v, want)
			}
		}
	}
}

// TestWaitAppliedCancelDeregistersWaiter pins that a cancelled wait leaves
// no entry behind: retries with cancels against a target that never arrives
// (a stopped server, say) must not accumulate registrations for the store's
// lifetime.
func TestWaitAppliedCancelDeregistersWaiter(t *testing.T) {
	st := testStore(t, 4)
	cancel := make(chan struct{})
	close(cancel)
	for i := 0; i < 64; i++ {
		if st.WaitApplied(int64(100+i), cancel) {
			t.Fatalf("retry %d: WaitApplied reported success with nothing applied", i)
		}
	}
	st.waitMu.Lock()
	n := len(st.waiters)
	st.waitMu.Unlock()
	if n != 0 {
		t.Fatalf("%d waiter entries left registered after cancelled waits, want 0", n)
	}
}

// TestStalenessObserveOffByOne pins the staleness formula — Observe(applied
// - 1 - baseVersion), where applied is the push's assigned version — under
// the serial path (each push applied before the next arrives), for a worker
// that owns its connection and for one whose pushes arrive as entries of a
// relay's partial. Worker 0 pushes against base 0 twice: the first lands at
// version 1 (staleness 0), the second still claims base 0 but lands at
// version 2 (staleness 1). A routed push is traced like a direct one: the
// relay harness samples every push, so each must leave one completed trace
// carrying the child's worker id, base and staleness.
func TestStalenessObserveOffByOne(t *testing.T) {
	for _, carrier := range []string{"direct", "trunk"} {
		t.Run(carrier, func(t *testing.T) {
			st := testStore(t, 4)
			var srv *Server
			var client *Client
			if carrier == "trunk" {
				h := newRelayHarness(t, core.MustNewASP(1), st, 1, 1, Options{})
				srv, client = h.server, h.childClient(t, 0)
			} else {
				var clients []*Client
				srv, clients = startTestServer(t, core.MustNewASP(1), st)
				client = clients[0]
			}
			grad := []*tensor.Tensor{tensor.Full(0.1, 4)}
			if err := client.PushAndWait(grad, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := client.PushAndWait(grad, 0, 1); err != nil {
				t.Fatal(err)
			}
			if n, sum, max := stalenessSeries(srv); n != 2 || sum != 1 || max != 1 {
				t.Fatalf("staleness count/sum/max %d/%v/%v, want 2/1/1: exactly one 0 and one 1", n, sum, max)
			}
			if carrier != "trunk" {
				return
			}
			// The sequencer completes a trace just after it sends the release.
			deadline := time.Now().Add(2 * time.Second)
			for srv.Status().TracesCompleted < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			traces := srv.Traces()
			if len(traces) != 2 {
				t.Fatalf("%d completed traces for 2 routed pushes: %+v", len(traces), traces)
			}
			for i, tr := range traces {
				if tr.Worker != 0 || tr.Iteration != i || tr.Base != 0 || tr.Staleness != i ||
					tr.Ticket != int64(i+1) || tr.Dropped != "" || tr.ReleasedAt.IsZero() {
					t.Errorf("routed push %d traced as %+v", i, tr)
				}
			}
		})
	}
}

// TestStalenessObserveOffByOneCoalesced repeats the off-by-one pin with the
// applier gated so both pushes sit in one coalesced batch: tickets are
// assigned under the policy lock before any apply completes, so the
// staleness series must be identical to the serial path's.
func TestStalenessObserveOffByOneCoalesced(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(4)}
	gate := gateSteps(t)
	st, err := NewStoreSharded(initial, optimizer.NewSGD(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, clients := startTestServer(t, core.MustNewASP(2), st)

	grad := []*tensor.Tensor{tensor.Full(0.1, 4)}
	// Worker 0's push enters the gated step; worker 1's push queues behind
	// it. Base versions are both 0, so the assigned tickets 1 and 2 must
	// observe staleness 0 and 1 exactly as if applied serially.
	push := func(c *Client, it int) chan error {
		ch := make(chan error, 1)
		go func() { ch <- c.PushAndWait(grad, 0, it) }()
		return ch
	}
	done0 := push(clients[0], 0)
	<-gate.entered
	done1 := push(clients[1], 0)
	// The second ticket is assigned under policyMu before the release goes
	// out; wait until the server has counted both pushes.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Pushes() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("server never counted the queued push")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.resume)
	if err := <-done0; err != nil {
		t.Fatal(err)
	}
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	if steps := gate.steps.Load(); steps != 2 {
		t.Fatalf("optimizer ran %d steps, want 2 (one gated, one coalesced batch)", steps)
	}
	if n, sum, max := stalenessSeries(srv); n != 2 || sum != 1 || max != 1 {
		t.Fatalf("coalesced staleness count/sum/max %d/%v/%v, want 2/1/1: exactly one 0 and one 1", n, sum, max)
	}
}

// stalenessSeries reads dssp_push_staleness's count and sum and
// dssp_push_staleness_max. Staleness is clamped at 0, so two observations
// summing to 1 with a maximum of 1 are exactly one 0 and one 1.
func stalenessSeries(srv *Server) (n uint64, sum, max float64) {
	return srv.sm.staleness.Count(), srv.sm.staleness.Sum(), srv.sm.stalenessMax.Value()
}

// TestPushErrorStillReleasesPeers pins the error-release interaction through
// the unified delivery helper: under BSP, a pusher whose push fails to apply
// must receive the error (not an OK), while the peers its round released
// still get their OKs — a single bad payload must not deadlock the barrier.
// The carrier axis runs it for a worker's own push and for a relay's partial
// standing for children {0,1}: every child the partial carried gets its own
// error on the trunk, tagged with its worker id, and none gets an OK. The
// relay-child arm puts a real relay in front of children {0,1} and has child
// 1 push the right number of tensors in the wrong shape: the relay answers it
// with one tagged error and folds nothing, child 0's partial leaves intact,
// and child 1's departure completes the round. Every way, and on every
// transport — TCP, the same-host lane, the in-process channel — the failed
// push's leased receive buffer goes back exactly once.
func TestPushErrorStillReleasesPeers(t *testing.T) {
	var released atomic.Int64
	t.Cleanup(transport.SetReleaseHook(func([]byte) { released.Add(1) }))
	// Every carrier runs with its loopback dials held on TCP, the cross-host
	// transport, again with them upgrading to the same-host lane, and in
	// process.
	for _, arm := range []struct {
		carrier, wire string
	}{
		{"direct", "tcp"}, {"direct", "lane"}, {"direct", "channel"},
		{"trunk", "tcp"}, {"trunk", "lane"}, {"trunk", "channel"},
		{"relay-child", "tcp"}, {"relay-child", "lane"}, {"relay-child", "channel"},
	} {
		carrier := arm.carrier
		t.Run(carrier+"/"+arm.wire, func(t *testing.T) {
			t.Cleanup(transport.SetLaneEnabled(arm.wire == "lane"))
			workers := map[string]int{"direct": 2, "trunk": 3, "relay-child": 3}[carrier]
			st := testStore(t, 4)
			srv, err := NewServer(ServerConfig{Workers: workers, Policy: core.MustNewBSP(workers), Store: st})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Stop)
			tcp := arm.wire != "channel"
			_, dial := endpoint(t, tcp, func(l transport.Listener) { _ = srv.Serve(l) })
			connectAt := func(dial func() (transport.Conn, error), w int) *Client {
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				c := newClient(conn, w)
				if err := c.Register(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			connect := func(w int) *Client { return connectAt(dial, w) }
			// The last worker pushes a good gradient first, so the bad push is
			// the one that completes the barrier: the round's release and the
			// failure are one decision.
			okCh := make(chan error, 1)
			good := connect(workers - 1)
			go func() { okCh <- good.PushAndWait([]*tensor.Tensor{tensor.Full(0.1, 4)}, 0, 0) }()
			deadline := time.Now().Add(5 * time.Second)
			for srv.Pushes() < 1 {
				if time.Now().After(deadline) {
					t.Fatal("server never counted the good push")
				}
				time.Sleep(time.Millisecond)
			}
			// A structurally valid payload whose tensor count does not match
			// the store: decode succeeds, the enqueue rejects, and the policy
			// has already counted the push toward the barrier. Over 4 KB, so
			// the frame is big enough to be leased.
			bad := []*tensor.Tensor{tensor.New(2048), tensor.New(2)}
			applied := int64(1)
			before := released.Load()
			// Each arm ends with a round trip on the pushing connection, which
			// is served in order: by its reply the push handler has returned.
			switch carrier {
			case "direct":
				c0 := connect(0)
				if err := c0.PushAndWait(bad, 0, 0); err == nil {
					t.Fatal("worker 0's bad push reported success")
				}
				if _, _, err := c0.Pull(); err != nil {
					t.Fatalf("worker 0's pull after the error: %v", err)
				}
			case "trunk":
				trunk := rawTrunk(t, dial, 0, 1)
				err := trunk.Send(transport.Message{
					Type:        transport.MsgPush,
					PushEntries: []transport.PushEntry{{Worker: 0}, {Worker: 1}},
					Tensors:     transport.ToWireOwned(bad),
				})
				if err != nil {
					t.Fatal(err)
				}
				// The sequencer queues a batch's OKs ahead of its errors, so an
				// OK for either child would arrive first.
				for w := 0; w < 2; w++ {
					reply, err := trunk.Recv()
					if err != nil || reply.Type != transport.MsgError || reply.Worker != w {
						t.Fatalf("trunk reply %d is %+v (%v), want child %d's Error", w, reply, err, w)
					}
				}
				if err := trunk.Send(transport.Message{Type: transport.MsgRegister, Worker: 0}); err != nil {
					t.Fatal(err)
				}
				if ack, err := trunk.Recv(); err != nil || ack.Type != transport.MsgRegistered {
					t.Fatalf("trunk's frame after the errors is %+v (%v), want the re-join's Registered", ack, err)
				}
			case "relay-child":
				relay, err := NewRelay(RelayConfig{Fanout: 2, Advertise: "relay"}, parentDial(dial), nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(relay.Stop)
				_, dialRelay := endpoint(t, tcp, func(l transport.Listener) { _ = relay.Serve(l) })
				// Child 0 pulls, which shows the relay the model's layout, and
				// its good push opens the window child 1's is judged against.
				c0 := connectAt(dialRelay, 0)
				c1, err := dialRelay()
				if err != nil {
					t.Fatal(err)
				}
				defer c1.Close()
				exchange := func(req transport.Message) transport.Message {
					t.Helper()
					if err := c1.Send(req); err != nil {
						t.Fatal(err)
					}
					reply, err := c1.Recv()
					if err != nil {
						t.Fatal(err)
					}
					return reply
				}
				if ack := exchange(transport.Message{Type: transport.MsgRegister, Worker: 1}); ack.Type != transport.MsgRegistered {
					t.Fatalf("child 1's registration answered %+v", ack)
				}
				if _, _, err := c0.Pull(); err != nil {
					t.Fatal(err)
				}
				ok0 := make(chan error, 1)
				go func() { ok0 <- c0.PushAndWait([]*tensor.Tensor{tensor.Full(0.1, 4)}, 0, 0) }()
				for relay.Stats().ChildPushes < 1 {
					if time.Now().After(deadline) {
						t.Fatal("relay never counted child 0's push")
					}
					time.Sleep(time.Millisecond)
				}
				// As many tensors as the model, so only the shape is wrong. The
				// relay answers with one error naming child 1; the frame after it
				// is the answer to the next request (a relay serves no maps).
				reply := exchange(transport.Message{Type: transport.MsgPush, Worker: 1, Tensors: transport.ToWireOwned(bad[:1])})
				if reply.Type != transport.MsgError || reply.Worker != 1 {
					t.Fatalf("child 1's misshapen push answered %+v, want an Error naming worker 1", reply)
				}
				if next := exchange(transport.Message{Type: transport.MsgClusterMap}); !strings.Contains(next.Error, "not the aggregation root") {
					t.Fatalf("the frame after the error is %+v, want the map refusal: one reply per push", next)
				}
				if n := relay.Stats().ChildPushes; n != 1 {
					t.Fatalf("relay folded %d pushes, want 1: the misshapen one folds nothing", n)
				}
				// Child 1 never pushed as far as the root knows; its departure
				// completes the round for child 0 and the direct worker.
				c1.Close()
				if err := <-ok0; err != nil {
					t.Fatalf("child 0's good push failed: %v", err)
				}
				applied = 2
			}
			select {
			case err := <-okCh:
				if err != nil {
					t.Fatalf("worker %d's good push failed: %v", workers-1, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("worker %d deadlocked behind the bad push", workers-1)
			}
			if st.Version() != applied {
				t.Fatalf("store version %d, want %d (only the good pushes applied)", st.Version(), applied)
			}
			if n := released.Load() - before; n != 1 {
				t.Fatalf("the failed push's receive buffer was released %d times, want exactly 1", n)
			}
		})
	}
}

// TestStaleGatedReleaseNeverReachesSuccessorSession pins release delivery to
// the sessions the decision accounted for: an OK that waits on its apply
// gate while its worker leaves and rejoins must die with the old carrier,
// never land on the successor — a rejoined worker has not pushed on its new
// session, so a stale OK would surface as an out-of-turn message on its
// next Pull. The applier is held inside the optimizer step so the
// leave/rejoin deterministically happens while the release is gated. The
// carrier axis decides what the leaving worker 0 rode when it pushed: its own
// connection, or a relay's trunk — it then re-parents to the root itself, or
// rejoins through the same relay, where the trunk session its release is
// pinned to outlives it and only the slot's admit epoch tells the tenures
// apart.
func TestStaleGatedReleaseNeverReachesSuccessorSession(t *testing.T) {
	for _, carrier := range []string{"direct", "trunk", "trunk-same-relay"} {
		t.Run(carrier, func(t *testing.T) {
			initial := []*tensor.Tensor{tensor.New(4)}
			gate := gateSteps(t)
			st, err := NewStoreSharded(initial, optimizer.NewSGD(1.0), 1)
			if err != nil {
				t.Fatal(err)
			}
			relays := map[string]int{"direct": 0, "trunk": 1, "trunk-same-relay": 1}[carrier]
			// A fanout-1 relay covers worker 0; worker 1 dials the root.
			h := newRelayHarness(t, core.MustNewBSP(2), st, relays, 1, Options{})
			srv := h.server
			direct := func(w int) *Client {
				conn, err := h.rootListener.Dial()
				if err != nil {
					t.Fatal(err)
				}
				return newClient(conn, w)
			}
			leaver, stayer := h.childClient(t, 0), direct(1)
			if err := stayer.Register(); err != nil {
				t.Fatal(err)
			}

			grad := []*tensor.Tensor{tensor.Full(0.1, 4)}
			push := func(c *Client) chan error {
				ch := make(chan error, 1)
				go func() { ch <- c.PushAndWait(grad, 0, 0) }()
				return ch
			}
			// Worker 1's push enters the gated optimizer step; worker 0's
			// completes the barrier, queueing a release for both workers gated
			// on both applies.
			stayed := push(stayer)
			<-gate.entered
			left := push(leaver)
			deadline := time.Now().Add(2 * time.Second)
			for srv.Pushes() < 2 {
				if time.Now().After(deadline) {
					t.Fatal("server never counted the second push")
				}
				time.Sleep(time.Millisecond)
			}

			// With the release still gated, worker 0 leaves and rejoins on a
			// fresh connection — the real reconnect flow.
			if err := leaver.conn.Send(transport.Message{Type: transport.MsgLeave, Worker: leaver.worker}); err != nil {
				t.Fatal(err)
			}
			deadline = time.Now().Add(2 * time.Second)
			for srv.Departures() < 1 {
				if time.Now().After(deadline) {
					t.Fatal("server never processed the leave")
				}
				time.Sleep(time.Millisecond)
			}
			rejoinAt := h.rootListener
			if carrier == "trunk-same-relay" {
				rejoinAt = h.listeners[0]
			}
			conn, err := rejoinAt.Dial()
			if err != nil {
				t.Fatal(err)
			}
			rejoined := newClient(conn, 0)
			if err := rejoined.rejoin(st.Version()); err != nil {
				t.Fatal(err)
			}

			close(gate.resume)
			select {
			case err := <-stayed:
				if err != nil {
					t.Fatalf("worker 1's barrier release never arrived: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("worker 1 still blocked after the gate opened")
			}
			if carrier == "trunk-same-relay" {
				// The trunk delivers in order, so once the root's refusal of an
				// out-of-range join has come back through the relay, anything
				// the root queued on the trunk before it has been handed on.
				conn, err := h.listeners[0].Dial()
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if err := newClient(conn, 7).Register(); err == nil {
					t.Fatal("the root admitted worker 7 of 2")
				}
			}
			// The rejoined session's first reply must be the pull's weights —
			// with delivery keyed on worker IDs it would be worker 0's stale
			// pre-departure OK instead.
			params, version, err := rejoined.Pull()
			if err != nil {
				t.Fatalf("rejoined worker's first pull failed: %v", err)
			}
			if version != 2 || len(params) != 1 {
				t.Fatalf("rejoined pull returned version %d with %d tensors, want version 2 with 1", version, len(params))
			}
			select {
			case <-left: // leave tore down the old connection; any outcome is fine
			case <-time.After(5 * time.Second):
				t.Fatal("worker 0's abandoned push never unblocked")
			}
		})
	}
}

// TestPackShardCacheNeverStaleUnderCoalescedApplies hammers the packed-pull
// cache from many readers while the applier pipeline lands coalesced
// batches, then quiesces and verifies the cache serves exactly the final
// published snapshot at the final version. Run under -race this also
// proves the cache fill, the COW publication and the batched version bumps
// never touch shared state unsynchronized.
func TestPackShardCacheNeverStaleUnderCoalescedApplies(t *testing.T) {
	initial := pipelineModel(21)
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.05), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := compress.Config{Codec: compress.FP16}.Normalized()
	pack := func(dst []compress.Packed, params []*tensor.Tensor) []compress.Packed {
		return compress.PackInto(dst, params, cfg)
	}

	const pushes = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			var lastV int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				version := st.Version()
				packed, pin := st.acquirePacked(shard%st.Shards(), pack)
				if version < lastV {
					t.Errorf("version went backwards: %d after %d", version, lastV)
					return
				}
				lastV = version
				_, err := compress.DecompressAllReuse(packed, nil)
				pin.release()
				if err != nil {
					t.Errorf("cache served undecodable payload: %v", err)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(77))
	gradSets := make([][]*tensor.Tensor, pushes)
	for i := range gradSets {
		gradSets[i] = pipelineGrads(rng, initial)
	}
	for _, g := range gradSets {
		if _, err := st.EnqueueApply(g); err != nil {
			t.Fatal(err)
		}
	}
	st.WaitApplied(pushes, nil)
	close(stop)
	wg.Wait()

	// Quiesced: the cache must now serve the final snapshot, never anything
	// the batched version bumps left behind.
	final, _ := st.Snapshot()
	for i := 0; i < st.Shards(); i++ {
		version := st.Version()
		packed, pin := st.acquirePacked(i, pack)
		defer pin.release()
		if version != pushes {
			t.Fatalf("shard %d packed at aggregate version %d, want %d", i, version, pushes)
		}
		got, err := compress.DecompressAllReuse(packed, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := st.ranges[i]
		wantPacked := compress.Pack(final[r.Start:r.End], cfg)
		wantRT, err := compress.DecompressAllReuse(wantPacked, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTensors(got, wantRT) {
			t.Fatalf("shard %d packed cache does not match the final published snapshot", i)
		}
	}
}

// TestPullLabelIsTheVersionItPins: a Weights reply is labelled with the
// version its weights hold, the lowest among the generations it pins. Shard
// 1's step is held while shard 0 lands the push, so the store stands at
// version 0; a pull then pins shard 0 at version 1 and waits on shard 1,
// which the held step locks. Once the step lands the pull pins shard 1 at
// version 1 too: the reply holds the push on every shard and must say 1, not
// the 0 the store stood at before the first pin. Dense and packed pulls alike.
func TestPullLabelIsTheVersionItPins(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  compress.Config
	}{{"dense", compress.Config{}}, {"packed", compress.Config{Codec: compress.FP16, Pull: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			// Halves and ones: exact in fp16, so both forms compare exactly.
			initial := []*tensor.Tensor{tensor.Full(1, 8, 6), tensor.Full(1, 11), tensor.Full(1, 4, 3)}
			grads := []*tensor.Tensor{tensor.Full(0.5, 8, 6), tensor.Full(0.5, 11), tensor.Full(0.5, 4, 3)}
			st, err := NewStoreSharded(initial, optimizer.NewSGD(1), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			entered, resume := make(chan struct{}), make(chan struct{})
			var once sync.Once
			stepHook = func(sh *shard) {
				if sh == st.shards[1] {
					once.Do(func() {
						close(entered)
						<-resume
					})
				}
			}
			t.Cleanup(func() {
				stepHook = nil
				select {
				case <-resume:
				default:
					close(resume)
				}
			})
			srv, err := NewServer(ServerConfig{Workers: 2, Policy: core.MustNewASP(2), Store: st, Options: Options{Compression: tc.cfg}})
			if err != nil {
				t.Fatal(err)
			}
			l := transport.NewChanListener()
			go func() { _ = srv.Serve(l) }()
			t.Cleanup(func() {
				srv.Stop()
				l.Close()
			})
			clients := make([]*Client, 2)
			for w := range clients {
				conn, err := l.Dial()
				if err != nil {
					t.Fatal(err)
				}
				if clients[w], err = NewClientCompressed(conn, w, tc.cfg); err != nil {
					t.Fatal(err)
				}
				if err := clients[w].Register(); err != nil {
					t.Fatal(err)
				}
			}

			if err := clients[0].pushAsync(grads, nil, 0, 0); err != nil {
				t.Fatal(err)
			}
			within(t, entered, "shard 1's step never began")
			sh0 := st.shards[0]
			waitFor(t, "shard 0 never applied the push", func() bool { return sh0.applied.Load() == 1 })
			if v := st.Version(); v != 0 {
				t.Fatalf("store at version %d with shard 1's step held, want 0", v)
			}
			reply := pullAsync(clients[1])
			waitFor(t, "the pull never pinned shard 0", func() bool {
				if tc.cfg.Pull {
					sh0.packedMu.Lock()
					defer sh0.packedMu.Unlock()
					return sh0.packed != nil && sh0.packed.refs.Load() > 0
				}
				sh0.mu.RLock()
				defer sh0.mu.RUnlock()
				return sh0.gen.refs.Load() > 0
			})
			close(resume)
			r := within(t, reply, "pull unanswered after the step landed")
			if r.err != nil || r.version != 1 {
				t.Fatalf("reply holding push 1 on every shard is labelled %d (%v), want 1", r.version, r.err)
			}
			ref, err := NewStoreSharded(initial, optimizer.NewSGD(1), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if _, err := ref.Apply(grads); err != nil {
				t.Fatal(err)
			}
			want, _ := ref.Snapshot()
			requireSameWeights(t, r.params, want)
		})
	}
}
