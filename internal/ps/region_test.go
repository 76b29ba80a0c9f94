package ps

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// writable reports whether a store into t's first value succeeds: true for a
// tensor on the heap or in a leased arena slot, false — the store faults —
// for one that is a reference into a server's generation region, which a
// receiver maps read-only. The value is written back unchanged.
func writable(t *tensor.Tensor) (ok bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	// Or-ing in a zero the compiler cannot see is a store it cannot drop (an
	// atomic would fault inside the race runtime, where no panic recovers).
	p := (*uint32)(unsafe.Pointer(&t.Data()[0]))
	*p |= noBits
	return true
}

// noBits is zero; writable stores it.
var noBits uint32

// regionServer serves an ASP store of model to workers workers, with opts,
// over a lane listener whose generation region lets at most limit extents be
// live (0: no limit), and returns it with a dialer and the region's
// accounting.
func regionServer(t *testing.T, model []*tensor.Tensor, workers, limit int, opts Options) (*Store, *Server, func() (transport.Conn, error), *limitedRegion) {
	t.Helper()
	t.Cleanup(transport.SetLaneEnabled(true))
	st, err := NewStoreSharded(model, optimizer.NewSGD(0.01), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Workers: workers, Policy: core.MustNewASP(workers), Store: st, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	lr := &limitedRegion{Listener: l, host: l.(transport.RegionHost), limit: limit}
	go func() { _ = srv.Serve(lr) }()
	return st, srv, func() (transport.Conn, error) { return transport.Dial(l.Addr()) }, lr
}

// limitedRegion is a listener whose region refuses an extent while limit
// are live, an extent counting as live until the store has freed it and no
// reference into it is out (its reclaim reports true).
type limitedRegion struct {
	transport.Listener
	host  transport.RegionHost
	limit int

	mu    sync.Mutex
	live  int
	freed []func() bool
}

func (l *limitedRegion) ShareRegion(via transport.Conn) func(int) ([]float32, func() bool, func()) {
	alloc := l.host.ShareRegion(via)
	if alloc == nil {
		return nil
	}
	return func(n int) ([]float32, func() bool, func()) {
		if l.limit > 0 && l.inUse() >= l.limit {
			return nil, nil, nil
		}
		mem, reclaim, free := alloc(n)
		if mem == nil {
			return nil, nil, nil
		}
		l.mu.Lock()
		l.live++
		l.mu.Unlock()
		return mem, reclaim, func() {
			free()
			l.mu.Lock()
			l.freed = append(l.freed, reclaim)
			l.mu.Unlock()
		}
	}
}

// inUse counts the live extents: allocated, less those freed whose
// references have all been released.
func (l *limitedRegion) inUse() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.freed[:0]
	for _, reclaim := range l.freed {
		if reclaim() {
			l.live--
		} else {
			kept = append(kept, reclaim)
		}
	}
	l.freed = kept
	return l.live
}

// laneModel is a two-shard model whose shards are both large enough to leave
// a lane connection in the shared region rather than on its socket.
func laneModel() []*tensor.Tensor {
	return []*tensor.Tensor{tensor.New(96, 64), tensor.New(33), tensor.New(40, 30), tensor.New(8192)}
}

// TestPulledReferenceFaultsOnAStrayWrite: a same-host pull hands the worker
// views of the server's generation region, which it maps read-only, so a
// store into a pulled tensor faults instead of changing the weights every
// other reader is served.
//
// Mutation-checked: mapping received regions writable lets the store through
// and the server's weights change under it.
func TestPulledReferenceFaultsOnAStrayWrite(t *testing.T) {
	model := laneModel()
	st, _, dial, _ := regionServer(t, model, 1, 0, Options{})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(conn, 0)
	defer c.Close()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	grads := make([]*tensor.Tensor, len(model))
	for i, p := range model {
		grads[i] = tensor.Full(1, p.Shape()...)
	}
	var params []*tensor.Tensor
	for r := 0; r < 3; r++ {
		var version int64
		if params, version, err = c.Pull(); err != nil {
			t.Fatal(err)
		}
		if err := c.PushAndWait(grads, version, r); err != nil {
			t.Fatal(err)
		}
	}
	if params, _, err = c.Pull(); err != nil {
		t.Fatal(err)
	}
	before, _ := st.Snapshot()
	for i, p := range params {
		if writable(p) {
			t.Errorf("pulled tensor %d took a store: it is not a read-only view of the generation region", i)
		}
	}
	after, _ := st.Snapshot()
	for i := range before {
		if before[i].Data()[0] != after[i].Data()[0] {
			t.Fatalf("the server's tensor %d changed under a stray store into a pulled copy", i)
		}
	}
}

// TestRegionFullFallsBackToCopy pins more generations than the retire pool
// holds — each of several workers sits on a reference to a different one —
// so that the pool evicts generations a reference still pins, and then fills
// the server's generation region. An evicted generation's extent goes back
// once the worker lets go of it, so nothing leaks; the generations that do
// not fit are allocated on the heap, counted by dssp_store_clone_heap_total,
// and pulled by copy — the worker's tensors are its own to write.
//
// Mutation-checked: dropping evicted generations without freeing their
// extents leaves more extents live than the store can use once the workers
// let go.
func TestRegionFullFallsBackToCopy(t *testing.T) {
	model := laneModel()
	const workers = retiredGens + 2
	_, srv, dial, lr := regionServer(t, model, workers, 0, Options{})
	heap := func() float64 { return srv.Registry().Snapshot()["dssp_store_clone_heap_total"] }
	clients := make([]*Client, workers)
	for w := range clients {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		clients[w] = newClient(conn, w)
		defer clients[w].Close()
		if err := clients[w].Register(); err != nil {
			t.Fatal(err)
		}
	}
	grads := make([]*tensor.Tensor, len(model))
	for i, p := range model {
		grads[i] = tensor.Full(1, p.Shape()...)
	}
	pull := func(w int) []*tensor.Tensor {
		t.Helper()
		params, _, err := clients[w].Pull()
		if err != nil {
			t.Fatal(err)
		}
		return params
	}
	iteration := 0
	push := func() {
		t.Helper()
		_, version, err := clients[0].Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := clients[0].PushAndWait(grads, version, iteration); err != nil {
			t.Fatal(err)
		}
		iteration++
	}
	// Each of workers 1.. holds a reference to its own generation.
	pinEach := func() {
		for w := 1; w < workers; w++ {
			pull(w)
			push()
		}
	}
	for i := 0; i < 3; i++ {
		push()
	}
	if writable(pull(1)[0]) {
		t.Fatal("a pull is not a reference into the region")
	}
	pinEach()
	if n := heap(); n != 0 {
		t.Fatalf("%v generations went to the heap while the region had room", n)
	}
	// Letting go gives the evicted generations' extents back: what stays
	// live is at most the current generation and a full pool per shard.
	for w := 1; w < workers; w++ {
		pull(w)
	}
	push()
	if n, most := lr.inUse(), 2*(retiredGens+1); n > most {
		t.Fatalf("%d extents live once the workers let go, want at most %d", n, most)
	}

	// Now the region is full: the pins make the applier allocate, and what
	// it allocates is heap, and the next pull of it a copy.
	lr.limit = lr.inUse()
	copied := 0
	for w := 1; w < workers; w++ {
		for _, p := range pull(w) {
			if writable(p) {
				copied++
			}
		}
		push()
	}
	if heap() == 0 {
		t.Fatal("no generation went to the heap with the region full")
	}
	if copied == 0 {
		t.Error("every pull of a heap generation arrived as a reference")
	}
}

// TestLeaseExpiredReaderKeepsItsGeneration: the server closes a worker's
// connection — its lease expired — while the worker, alive, still reads the
// references it pulled, and the other worker moves the store on past the
// retire pool. The closed connection's references keep pinning the
// generation they name until the worker lets go, so it is neither recycled
// (which the release hook would poison) nor freed under the worker; then it
// is free to recycle again.
//
// Mutation-checked: ending a closed connection's reference holds at once
// lets the applier recycle the generation the worker reads, and rewrite it.
func TestLeaseExpiredReaderKeepsItsGeneration(t *testing.T) {
	poisonReleasedBodies(t)
	model := laneModel()
	st, srv, dial, _ := regionServer(t, model, 2, 0, Options{Lease: 100 * time.Millisecond})
	clients := make([]*Client, 2)
	for w := range clients {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		clients[w] = newClient(conn, w)
		defer clients[w].Close()
		if err := clients[w].Register(); err != nil {
			t.Fatal(err)
		}
	}
	grads := make([]*tensor.Tensor, len(model))
	for i, p := range model {
		grads[i] = tensor.Full(1, p.Shape()...)
	}
	iteration := 0
	round := func() {
		t.Helper()
		_, version, err := clients[0].Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := clients[0].PushAndWait(grads, version, iteration); err != nil {
			t.Fatal(err)
		}
		iteration++
	}
	for i := 0; i < 4; i++ {
		round()
	}
	held, _, err := clients[1].Pull()
	if err != nil {
		t.Fatal(err)
	}
	if writable(held[0]) {
		t.Fatal("the pull is not a reference into the region")
	}
	want := make([][]float32, len(held))
	for i, p := range held {
		want[i] = append([]float32(nil), p.Data()...)
	}
	// Worker 1 goes silent; worker 0 trains on until the server has closed
	// worker 1's connection, and then past the retire pool.
	clients[1].stopHeartbeats()
	for deadline := time.Now().Add(10 * time.Second); srv.Status().Departures == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the silent worker's lease never expired")
		}
		round()
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2*retiredGens; i++ {
		round()
	}
	for i, p := range held {
		for j, v := range p.Data() {
			if v != want[i][j] {
				t.Fatalf("value %d of pulled tensor %d reads %v after the server closed the connection, want %v: the generation was rewritten under a live reader", j, i, v, want[i][j])
			}
		}
	}
	// Worker 0's own pins move to the current generation; the one worker 1
	// reads is the one retired generation still pinned, until it lets go.
	if _, _, err := clients[0].Pull(); err != nil {
		t.Fatal(err)
	}
	if allRetiredQuiescent(st) {
		t.Fatal("no retired generation is pinned by the reference the worker still reads")
	}
	clients[1].Close()
	if !allRetiredQuiescent(st) {
		t.Fatal("the generation stays pinned after the worker let go of it")
	}
}

// TestDeadReaderPinsNothing runs a worker in a process of its own, which is
// killed while it holds references into the server's generations, never
// releasing them: the server's pins drop with the process, every retired
// generation is free to recycle again, and the surviving worker's steady
// state allocates no generation.
//
// Mutation-checked: a peer never seen to exit leaves the dead worker's
// generation pinned for good.
func TestDeadReaderPinsNothing(t *testing.T) {
	if flag.Arg(0) == "dead-reader" {
		holdReferences(t, flag.Arg(1))
		return
	}
	model := laneModel()
	st, _, dial, lr := regionServer(t, model, 2, 0, Options{})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(conn, 0)
	defer c.Close()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	grads := make([]*tensor.Tensor, len(model))
	for i, p := range model {
		grads[i] = tensor.Full(1, p.Shape()...)
	}
	round := func(i int) {
		t.Helper()
		_, version, err := c.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PushAndWait(grads, version, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		round(i)
	}
	// Worker 1, in its own process, pulls and holds the reply; worker 0
	// moves the store on, so that the generation worker 1 holds is retired.
	reader := exec.Command(os.Args[0], "-test.run=^TestDeadReaderPinsNothing$", "--", "dead-reader", lr.Addr())
	reader.Stderr = os.Stderr
	out, err := reader.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = reader.Process.Kill()
		_ = reader.Wait()
	}()
	if line, err := bufio.NewReader(out).ReadString('\n'); line != "held\n" {
		t.Fatalf("the reader process said %q (%v), not that it holds a reference", line, err)
	}
	round(4)
	if _, _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}
	if allRetiredQuiescent(st) {
		t.Fatal("no retired generation is pinned by the worker holding a reference to it")
	}
	_ = reader.Process.Kill()
	_ = reader.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for !allRetiredQuiescent(st) {
		if time.Now().After(deadline) {
			t.Fatal("the generations the dead worker held stay pinned")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 5; i < 8; i++ {
		round(i)
	}
	_, allocated := cloneFates(st)
	for i := 8; i < 40; i++ {
		round(i)
	}
	if _, after := cloneFates(st); after != allocated {
		t.Errorf("%v generations allocated over 32 rounds after the dead worker's pins dropped, want 0", after-allocated)
	}
}

// holdReferences is TestDeadReaderPinsNothing's reader process: it registers
// as worker 1 of the server at addr, pulls, says so on stdout and waits,
// holding the reply, to be killed.
func holdReferences(t *testing.T, addr string) {
	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(conn, 1)
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	params, _, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if writable(params[0]) {
		t.Fatal("the pull is not a reference into the region")
	}
	fmt.Println("held")
	time.Sleep(time.Hour)
	runtime.KeepAlive(params)
}

// allRetiredQuiescent reports whether every retired generation of every
// shard is free to recycle. The applier must be idle.
func allRetiredQuiescent(st *Store) bool {
	for _, sh := range st.shards {
		for _, g := range sh.retired {
			if !g.quiescent() {
				return false
			}
		}
	}
	return true
}

// TestRelaySentReferenceOutlivesSupersededPullCache is
// TestRelaySentReplyOutlivesSupersededPullCache's rule for references: with
// both hops on the lane, a child's pull reply names where the weights lie in
// the root's generation region, and the child sits on it while the root
// moves on and a sibling's pulls supersede the relay's upstream cache again
// and again. The relay keeps the upstream reply it passed on leased until the
// child lets go, so the root never recycles the generation under it.
//
// Mutation-checked: releasing an upstream reply while references the relay
// passed on still pin it lets the root rewrite the generation the child
// reads.
func TestRelaySentReferenceOutlivesSupersededPullCache(t *testing.T) {
	poisonReleasedBodies(t)
	t.Cleanup(transport.SetLaneEnabled(true))
	st, err := NewStoreSharded([]*tensor.Tensor{tensor.Full(3, 8192)}, optimizer.NewSGD(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Workers: 2, Policy: core.MustNewASP(2), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	_, dialRoot := endpoint(t, true, func(l transport.Listener) { _ = srv.Serve(l) })
	relay, err := NewRelay(RelayConfig{Fanout: 2, Advertise: "relay"}, parentDial(dialRoot), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Stop)
	_, dialRelay := endpoint(t, true, func(l transport.Listener) { _ = relay.Serve(l) })
	step := func() {
		t.Helper()
		if _, err := st.Apply([]*tensor.Tensor{tensor.Full(0.5, 8192)}); err != nil {
			t.Fatal(err)
		}
	}
	step()

	var conns [2]transport.Conn
	var clients [2]*Client
	for w := range conns {
		if conns[w], err = dialRelay(); err != nil {
			t.Fatal(err)
		}
		clients[w] = newClient(conns[w], w)
		defer clients[w].Close()
		if err := clients[w].Register(); err != nil {
			t.Fatal(err)
		}
	}
	// Child 0 pulls by hand and keeps the reply.
	if err := conns[0].Send(transport.Message{Type: transport.MsgPull, Worker: 0}); err != nil {
		t.Fatal(err)
	}
	held, err := conns[0].Recv()
	if err != nil || held.Type != transport.MsgWeights || len(held.Tensors) != 1 {
		t.Fatalf("pull through the relay answered %v (%v)", held.Type, err)
	}
	defer held.Release()
	view, err := transport.FromWireOwned(held.Tensors)
	if err != nil {
		t.Fatal(err)
	}
	if writable(view[0]) {
		t.Fatal("the relay's reply is not a reference into the root's region")
	}
	// The root moves on, past its retire pool; child 1's pulls supersede the
	// relay's upstream cache each time.
	for i := 0; i < retiredGens+2; i++ {
		step()
		if _, _, err := clients[1].Pull(); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range held.Tensors[0].Data {
		if v != 2.5 {
			t.Fatalf("value %d of the reference child 0 holds reads %v, want 2.5: the root recycled a generation a child of the relay still reads", i, v)
		}
	}
}

// TestServerStopEvictsPackedGenerations: the packed generations of a pull
// codec live in the region too, and a server stopped while a worker still
// holds an fp16 pull reply — a reference into one of them — lets go of every
// one, as of every parameter generation (Store.unshareRegion): the store,
// which outlives the server, keeps none of the region's extents, the one the
// worker reads stays live until it lets go, and then none is.
func TestServerStopEvictsPackedGenerations(t *testing.T) {
	cfg := compress.Config{Codec: compress.FP16, Pull: true}
	model := laneModel()
	st, srv, dial, lr := regionServer(t, model, 1, 0, Options{Compression: cfg})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientCompressed(conn, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	grads := make([]*tensor.Tensor, len(model))
	for i, p := range model {
		grads[i] = tensor.Full(1, p.Shape()...)
	}
	for it := 1; it <= retiredGens+2; it++ {
		_, version, err := c.Pull()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PushAndWait(grads, version, it); err != nil {
			t.Fatal(err)
		}
	}
	// Pull by hand and keep the reply undecoded.
	if err := conn.Send(transport.Message{Type: transport.MsgPull}); err != nil {
		t.Fatal(err)
	}
	held, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	references := 0
	for _, p := range held.Packed {
		f := unsafe.Slice((*float32)(unsafe.Pointer(&p.Payload[0])), 1)
		if !writable(tensor.FromSliceOwned(f, 1)) {
			references++
		}
	}
	if references == 0 {
		t.Fatal("no fp16 pull reply is a reference into the region")
	}
	// The reply's pins end once the writer's Send has returned.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		pinned := false
		for _, sh := range st.shards {
			sh.packedMu.Lock()
			pinned = pinned || sh.packed != nil && sh.packed.refs.Load() != 0
			sh.packedMu.Unlock()
		}
		if !pinned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the pull replies' pins did not end")
		}
	}

	srv.Stop()
	for i, sh := range st.shards {
		sh.packedMu.Lock()
		kept := sh.packed != nil && sh.packed.free != nil
		for _, g := range sh.packedRetired {
			kept = kept || g.free != nil
		}
		sh.packedMu.Unlock()
		if kept {
			t.Fatalf("shard %d keeps a packed generation in the region of a stopped server", i)
		}
	}
	if lr.inUse() == 0 {
		t.Fatal("the extent a held reference reads was given back")
	}
	held.Release()
	if n := lr.inUse(); n != 0 {
		t.Fatalf("%d extents live after the server stopped and the worker let go", n)
	}
	// The store packs on the heap from now on.
	if _, pin := st.acquirePacked(0, func(dst []compress.Packed, params []*tensor.Tensor) []compress.Packed {
		return compress.PackInto(dst, params, cfg)
	}); pin.free != nil {
		t.Fatal("a packed generation went to the region of a stopped server")
	}
}
