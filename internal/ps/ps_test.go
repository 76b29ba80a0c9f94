package ps

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// newClient wraps a connection for the given worker, speaking the
// uncompressed protocol.
func newClient(conn transport.Conn, worker int) *Client {
	c, err := NewClientCompressed(conn, worker, compress.Config{})
	if err != nil {
		panic(err)
	}
	return c
}

func testStore(t *testing.T, dims ...int) *Store {
	t.Helper()
	if len(dims) == 0 {
		dims = []int{4}
	}
	initial := []*tensor.Tensor{tensor.New(dims...)}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(1.0), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sameTensors reports whether a and b hold the same shapes and bit-identical
// values, tensor by tensor.
func sameTensors(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameShape(a[i].Shape(), b[i].Shape()) {
			return false
		}
		x, y := a[i].Data(), b[i].Data()
		for j := range x {
			if math.Float32bits(x[j]) != math.Float32bits(y[j]) {
				return false
			}
		}
	}
	return true
}

// meterStore instruments a bare store on a private registry, as NewServer
// does, so a test can read its dssp_store_clone_{reuse,alloc}_total series.
// Call it before the first push.
func meterStore(st *Store) {
	st.instrument(newStoreMetrics(obs.NewRegistry()), nil)
}

// cloneFates reads the copy-on-write publication counters of an instrumented
// store: publications that recycled a retired generation, and those that
// allocated fresh buffers.
func cloneFates(st *Store) (reused, allocated uint64) {
	return st.metrics.cloneReuse.Value(), st.metrics.cloneAlloc.Value()
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStoreSharded(nil, optimizer.NewSGD(0.1), 0); err == nil {
		t.Error("expected error for empty parameter list")
	}
	if _, err := NewStoreSharded([]*tensor.Tensor{tensor.New(2)}, nil, 0); err == nil {
		t.Error("expected error for nil optimizer")
	}
}

func TestStoreApplyUpdatesVersionAndParameters(t *testing.T) {
	st := testStore(t, 3)
	if st.Version() != 0 {
		t.Fatalf("fresh store version = %d", st.Version())
	}
	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 2, 3}, 3)}
	v, err := st.Apply(grad)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || st.Version() != 1 {
		t.Fatalf("version after apply = %d/%d, want 1", v, st.Version())
	}
	params, version := st.Snapshot()
	if version != 1 {
		t.Fatalf("snapshot version = %d", version)
	}
	want := []float32{-1, -2, -3} // lr=1 plain SGD
	for i, v := range params[0].Data() {
		if v != want[i] {
			t.Errorf("param[%d] = %v, want %v", i, v, want[i])
		}
	}
	// Mutating the snapshot must not affect the store.
	params[0].Fill(99)
	again, _ := st.Snapshot()
	if again[0].At(0) == 99 {
		t.Fatal("snapshot aliases store parameters")
	}
}

func TestStoreApplyRejectsMismatchedGradients(t *testing.T) {
	st := testStore(t, 3)
	if _, err := st.Apply(nil); err == nil {
		t.Error("expected error for missing gradients")
	}
	if _, err := st.Apply([]*tensor.Tensor{tensor.New(5)}); err == nil {
		t.Error("expected error for wrong gradient shape")
	}
}

func TestStoreParamCount(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(2, 3), tensor.New(5)}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.1), 0)
	if err != nil {
		t.Fatal(err)
	}
	scalars := 0
	for _, shape := range st.shapes {
		scalars += tensor.New(shape...).Size()
	}
	if scalars != 11 {
		t.Fatalf("store holds %d scalars, want 11", scalars)
	}
}

func TestNewServerValidation(t *testing.T) {
	st := testStore(t)
	policy := core.MustNewASP(2)
	cases := []ServerConfig{
		{Workers: 0, Policy: policy, Store: st},
		{Workers: 2, Policy: nil, Store: st},
		{Workers: 2, Policy: policy, Store: nil},
		{Workers: 3, Policy: policy, Store: st}, // mismatched worker count
	}
	for i, cfg := range cases {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// startTestServer wires a server with the given policy to an in-process
// listener and returns connected clients for each worker.
func startTestServer(t *testing.T, policy core.Policy, st *Store) (*Server, []*Client) {
	t.Helper()
	workers := policy.NumWorkers()
	srv, err := NewServer(ServerConfig{Workers: workers, Policy: policy, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	listener := transport.NewChanListener()
	go func() { _ = srv.Serve(listener) }()
	t.Cleanup(func() {
		srv.Stop()
		listener.Close()
	})

	clients := make([]*Client, workers)
	for w := 0; w < workers; w++ {
		conn, err := listener.Dial()
		if err != nil {
			t.Fatal(err)
		}
		clients[w] = newClient(conn, w)
		if err := clients[w].Register(); err != nil {
			t.Fatal(err)
		}
	}
	return srv, clients
}

func TestServerASPWorkersRunIndependently(t *testing.T) {
	st := testStore(t, 4)
	srv, clients := startTestServer(t, core.MustNewASP(2), st)

	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1, 1}, 4)}
	// Worker 0 performs many iterations while worker 1 does nothing: under
	// ASP nothing blocks.
	params, version, err := clients[0].Pull()
	if err != nil {
		t.Fatal(err)
	}
	if version != 0 || len(params) != 1 {
		t.Fatalf("initial pull: version %d, %d tensors", version, len(params))
	}
	for i := 0; i < 10; i++ {
		if err := clients[0].PushAndWait(grad, version, i); err != nil {
			t.Fatal(err)
		}
		_, version, err = clients[0].Pull()
		if err != nil {
			t.Fatal(err)
		}
	}
	if version != 10 {
		t.Fatalf("store version = %d, want 10", version)
	}
	if srv.Status().Pushes != 10 {
		t.Fatalf("server counted %d pushes, want 10", srv.Status().Pushes)
	}
	// All pushes used fresh weights, so staleness must be 0 throughout.
	if max := srv.Status().MaxStaleness; max != 0 {
		t.Fatalf("max staleness = %d, want 0", max)
	}
}

func TestServerBSPBlocksUntilAllWorkersPush(t *testing.T) {
	st := testStore(t, 2)
	_, clients := startTestServer(t, core.MustNewBSP(2), st)

	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1}, 2)}
	released := make(chan int, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 1 {
				time.Sleep(50 * time.Millisecond)
			}
			if err := clients[w].PushAndWait(grad, 0, 0); err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			released <- w
		}(w)
	}
	select {
	case w := <-released:
		// Nobody may be released before both have pushed; since worker 1
		// delays 50ms, any release before that means BSP is broken. Verify by
		// checking that the second release follows almost immediately.
		select {
		case <-released:
		case <-time.After(2 * time.Second):
			t.Fatalf("worker %d released alone; barrier broken", w)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no worker released: deadlock")
	}
	wg.Wait()
}

func TestServerSSPTracksStalenessWithinBound(t *testing.T) {
	st := testStore(t, 2)
	srv, clients := startTestServer(t, core.MustNewSSP(2, 2), st)

	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1}, 2)}
	// Worker 1 pushes twice so that worker 0's bound is never the problem.
	for i := 0; i < 2; i++ {
		if err := clients[1].PushAndWait(grad, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	// Worker 0 pulls once and then pushes twice against the same base
	// version, creating staleness 2 and 3.
	_, base, err := clients[0].Pull()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := clients[0].PushAndWait(grad, base, i); err != nil {
			t.Fatal(err)
		}
	}
	if max := srv.Status().MaxStaleness; max < 1 {
		t.Fatalf("expected staleness to be recorded, max = %d", max)
	}
	if srv.Status().Pushes != 4 {
		t.Fatalf("pushes = %d, want 4", srv.Status().Pushes)
	}
}

// TestWaitsAccumulateAndClampAtZero: each release adds the worker's wait
// since its push to its dssp_worker_wait_seconds slot, across rounds, and a
// clock that stepped back between a push and its release adds nothing.
func TestWaitsAccumulateAndClampAtZero(t *testing.T) {
	var clock atomic.Int64 // seconds past the epoch
	srv, err := NewServer(ServerConfig{Workers: 2, Policy: core.MustNewBSP(2), Store: testStore(t, 2),
		Clock: func() time.Time { return time.Unix(clock.Load(), 0) }})
	if err != nil {
		t.Fatal(err)
	}
	listener := transport.NewChanListener()
	go func() { _ = srv.Serve(listener) }()
	t.Cleanup(func() {
		srv.Stop()
		listener.Close()
	})
	clients := make([]*Client, 2)
	for w := range clients {
		conn, err := listener.Dial()
		if err != nil {
			t.Fatal(err)
		}
		clients[w] = newClient(conn, w)
		if err := clients[w].Register(); err != nil {
			t.Fatal(err)
		}
	}
	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1}, 2)}
	// round has worker 0 push at first and worker 1 at second (seconds): the
	// barrier releases both at worker 1's push.
	round := func(it int, first, second int64) {
		t.Helper()
		clock.Store(first)
		done := make(chan error, 1)
		go func() { done <- clients[0].PushAndWait(grad, 0, it) }()
		deadline := time.Now().Add(2 * time.Second)
		for int(srv.Status().Pushes) < 2*it+1 {
			if time.Now().After(deadline) {
				t.Fatal("server never counted worker 0's push")
			}
			time.Sleep(time.Millisecond)
		}
		clock.Store(second)
		if err := clients[1].PushAndWait(grad, 0, it); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	round(0, 10, 5)  // the clock stepped back: worker 0 waited -5 s, counted as 0
	round(1, 20, 23) // worker 0 waits 3 s
	round(2, 30, 31) // and 1 s more
	waits := srv.Status().WaitSeconds
	if len(waits) != 2 || waits[0] != 4 || waits[1] != 0 {
		t.Fatalf("waits %v s, want [4 0]", waits)
	}
}

// TestStalenessAndWaitsReadableMidRun reads the staleness and waits of
// Status while two workers push: under -race, the registry series they read
// are safe to read mid-run.
func TestStalenessAndWaitsReadableMidRun(t *testing.T) {
	srv, clients := startTestServer(t, core.MustNewSSP(2, 1), testStore(t, 2))
	grad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1}, 2)}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.PushAndWait(grad, 0, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if st := srv.Status(); st.MeanStaleness <= 0 || st.MaxStaleness < 1 || reads == 0 {
				t.Fatalf("after %d mid-run reads: mean %v, max %d; want positive staleness", reads, st.MeanStaleness, st.MaxStaleness)
			}
			return
		default:
			srv.Status()
		}
	}
}

func TestServerRejectsBadGradientShapes(t *testing.T) {
	st := testStore(t, 4)
	_, clients := startTestServer(t, core.MustNewASP(1), st)
	bad := []*tensor.Tensor{tensor.New(7)}
	err := clients[0].PushAndWait(bad, 0, 0)
	if err == nil {
		t.Fatal("expected error for mismatched gradient shape")
	}
}

func TestServerRejectsOutOfRangeWorkerID(t *testing.T) {
	st := testStore(t)
	srv, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	listener := transport.NewChanListener()
	go func() { _ = srv.Serve(listener) }()
	defer func() {
		srv.Stop()
		listener.Close()
	}()
	conn, err := listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(conn, 9)
	if err := client.Register(); err == nil {
		t.Fatal("expected registration error for out-of-range worker id")
	}
}

func TestServerAllWorkersDone(t *testing.T) {
	st := testStore(t)
	srv, clients := startTestServer(t, core.MustNewASP(2), st)
	for _, c := range clients {
		if err := c.Done(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-srv.AllWorkersDone():
	case <-time.After(5 * time.Second):
		t.Fatal("AllWorkersDone never closed")
	}
}

func TestServerWithDSSPFullTrainingLoopConverges(t *testing.T) {
	// End-to-end: 3 workers minimize ||w - target||² through the parameter
	// server under DSSP. The store must converge close to the target.
	rng := rand.New(rand.NewSource(5))
	target := tensor.New(8).RandNormal(rng, 0, 1)
	initial := []*tensor.Tensor{tensor.New(8)}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.05), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, clients := startTestServer(t, core.MustNewDSSP(3, 1, 4), st)

	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *Client) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				params, version, err := c.Pull()
				if err != nil {
					t.Errorf("worker %d pull: %v", w, err)
					return
				}
				// Gradient of ||w - target||² at the pulled weights.
				grad := params[0].Clone().Sub(target).Scale(2)
				if err := c.PushAndWait([]*tensor.Tensor{grad}, version, i); err != nil {
					t.Errorf("worker %d push: %v", w, err)
					return
				}
			}
			if err := c.Done(); err != nil {
				t.Errorf("worker %d done: %v", w, err)
			}
		}(w, c)
	}
	wg.Wait()
	select {
	case <-srv.AllWorkersDone():
	case <-time.After(5 * time.Second):
		t.Fatal("workers never reported done")
	}
	final, version := st.Snapshot()
	if version != 180 {
		t.Fatalf("store version = %d, want 180", version)
	}
	dist := final[0].Clone().Sub(target).L2Norm()
	if dist > 0.05 {
		t.Fatalf("distributed SGD did not converge: distance %v", dist)
	}
}
