package ps

import (
	"fmt"
	"math"
	"net"
	"runtime"
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

// pusher is what the dense lease test drives: a flat or tree worker's Client
// and a group worker's ClusterClient both fit.
type pusher interface {
	Pull() ([]*tensor.Tensor, int64, error)
	PushSlot(grads []*tensor.Tensor) []*tensor.Tensor
	PushAndWait(grads []*tensor.Tensor, baseVersion int64, iteration int) error
	Done() error
	Close() error
}

// leaseTopology is a running server side for the dense lease test: connect
// registers worker w against it, snapshot reads the global weights and their
// version once the run is over.
type leaseTopology struct {
	connect  func(w int) (pusher, error)
	snapshot func(t *testing.T, updates int64) ([]*tensor.Tensor, int64)
	// replace (group only) stops data server i and promotes a fresh one,
	// holding the initial weights, over its shard range.
	replace func(t *testing.T, i int)
	// inPlace counts the frames sent from a push slot (transport.BodyPlacer)
	// by the workers' connections and by a relay's trunk.
	inPlace func() (workers, trunk float64)
	// route reaches the topology the way Connect does, over the dials
	// connect uses; workerReg holds the meter the workers' dials count on.
	route     Route
	workerReg *obs.Registry
	// replica opens a replica session on the root, or on a group's first
	// data server.
	replica func() (*Client, error)
}

// openReplica opens a replica session over a connection from dial.
func openReplica(dial func() (transport.Conn, error)) (*Client, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	return OpenReplica(conn)
}

// endpoint starts serve on a fresh listener of the chosen transport and
// returns the address and a dialer for it.
func endpoint(t *testing.T, tcp bool, serve func(transport.Listener)) (addr string, dial func() (transport.Conn, error)) {
	t.Helper()
	return meteredEndpoint(t, tcp, nil, serve)
}

// meteredEndpoint is endpoint with the dialing side of every socket
// connection counted on meter (the channel transport has no lane to count).
func meteredEndpoint(t *testing.T, tcp bool, meter *transport.Metrics, serve func(transport.Listener)) (addr string, dial func() (transport.Conn, error)) {
	t.Helper()
	if tcp {
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go serve(l)
		return l.Addr(), func() (transport.Conn, error) {
			return transport.DialWireMetered(l.Addr(), transport.WireBinary, meter)
		}
	}
	l := transport.NewChanListener()
	t.Cleanup(func() { l.Close() })
	go serve(l)
	return l.Addr(), l.Dial
}

// startLeaseTopology stands up topo ("flat", "group" or "tree") with its
// servers on TCP or the channel transport; edgeTCP picks the transport of a
// tree's relay-to-worker hop separately, so the mixed tree (socket upstream,
// in-process children) is covered too.
func startLeaseTopology(t *testing.T, topo string, tcp, edgeTCP bool, workers int, initial []*tensor.Tensor) leaseTopology {
	t.Helper()
	opt := func() *optimizer.SGD { return optimizer.NewSGD(1.0) }
	waitSnapshot := func(st *Store) func(*testing.T, int64) ([]*tensor.Tensor, int64) {
		return func(t *testing.T, updates int64) ([]*tensor.Tensor, int64) {
			if !st.WaitApplied(updates, nil) {
				t.Fatal("store closed before the pushes were applied")
			}
			return st.Snapshot()
		}
	}
	// The workers dial on one meter, a relay on another.
	workerReg, trunkReg := obs.NewRegistry(), obs.NewRegistry()
	workerMeter, trunkMeter := transport.NewMetrics(workerReg), transport.NewMetrics(trunkReg)
	inPlace := func() (float64, float64) {
		const series = "dssp_transport_lane_in_place_total"
		return workerReg.Snapshot()[series], trunkReg.Snapshot()[series]
	}
	switch topo {
	case "flat", "tree":
		st, err := NewStoreSharded(initial, opt(), 2)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{Workers: workers, Policy: core.MustNewASP(workers), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		rootMeter := workerMeter
		if topo == "tree" {
			rootMeter = trunkMeter
		}
		_, rootDial := meteredEndpoint(t, tcp, rootMeter, func(l transport.Listener) { _ = srv.Serve(l) })
		dial, route := rootDial, Route{Addr: "root"}
		if topo == "tree" {
			// One relay in front of every worker: child pushes fold into
			// partials, pulls are served from the relay's upstream cache.
			relay, err := NewRelay(RelayConfig{Fanout: workers, Advertise: "relay"}, parentDial(rootDial), nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(relay.Stop)
			_, dial = meteredEndpoint(t, edgeTCP, workerMeter, func(l transport.Listener) { _ = relay.Serve(l) })
		}
		route.Dial = func(addr string) (transport.Conn, error) {
			if addr == "relay" {
				return dial()
			}
			return rootDial()
		}
		return leaseTopology{
			inPlace:   inPlace,
			route:     route,
			workerReg: workerReg,
			replica:   func() (*Client, error) { return openReplica(rootDial) },
			connect: func(w int) (pusher, error) {
				conn, err := dial()
				if err != nil {
					return nil, err
				}
				c := newClient(conn, w)
				if err := c.Register(); err != nil {
					conn.Close()
					return nil, err
				}
				return c, nil
			},
			snapshot: waitSnapshot(st),
		}
	case "group":
		const servers = 2
		assignments, globalShards, err := groupLayout(tensorSizes(initial), 0, servers)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		dialers := make(map[string]func() (transport.Conn, error))
		dialAddr := func(addr string) (transport.Conn, error) {
			mu.Lock()
			dial := dialers[addr]
			mu.Unlock()
			if dial == nil {
				return nil, fmt.Errorf("no server at %s", addr)
			}
			return dial()
		}
		serve := func(srv *Server) string {
			t.Cleanup(srv.Stop)
			addr, dial := meteredEndpoint(t, tcp, workerMeter, func(l transport.Listener) { _ = srv.Serve(l) })
			mu.Lock()
			dialers[addr] = dial
			mu.Unlock()
			return addr
		}
		coordL := make(chan transport.Listener, 1)
		coordAddr, coordDial := meteredEndpoint(t, tcp, workerMeter, func(l transport.Listener) { coordL <- l })
		coord, err := Start(ServerConfig{Workers: workers, Policy: core.MustNewASP(workers),
			Cluster: ClusterConfig{Role: RoleCoordinator, Servers: servers}}, initial, opt(), <-coordL, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Stop)
		dialers[coordAddr] = coordDial
		stores := make([]*Store, servers)
		running := make([]*Server, servers)
		addrs := make([]string, servers)
		// start serves data server i's range from a fresh store and enters it
		// in the map with an announce whose stream it then closes: the range
		// keeps the entry, with no live owner, until the next announce for
		// it.
		start := func(t *testing.T, i int) {
			st, err := newStoreRange(initial, opt(), globalShards, assignments[i])
			if err != nil {
				t.Fatal(err)
			}
			// The data role acknowledges a fragment before applying it, so
			// the push's lease outlives its OK (PROTOCOL.md §5b).
			srv, err := NewServer(ServerConfig{Workers: workers, Policy: core.MustNewASP(workers), Store: st,
				Cluster: ClusterConfig{Role: RoleData}})
			if err != nil {
				t.Fatal(err)
			}
			addr := serve(srv)
			stores[i], running[i], addrs[i] = st, srv, addr
			conn, err := dialAddr(coordAddr)
			if err != nil {
				t.Fatal(err)
			}
			if reply, err := announceRange(conn, i, addr); err != nil || reply.Servers[0] != at(assignments[i], addr) {
				t.Fatalf("announce of %s: reply %+v, %v", addr, reply.Servers, err)
			}
			conn.Close()
		}
		for i := 0; i < servers; i++ {
			start(t, i)
		}
		return leaseTopology{
			inPlace:   inPlace,
			route:     Route{Dial: dialAddr, Addr: coordAddr},
			workerReg: workerReg,
			replica: func() (*Client, error) {
				return openReplica(func() (transport.Conn, error) { return dialAddr(addrs[0]) })
			},
			replace: func(t *testing.T, i int) {
				running[i].Stop()
				start(t, i)
			},
			connect: func(w int) (pusher, error) {
				return NewClusterClient(dialAddr, coordAddr, w, ClusterClientConfig{})
			},
			snapshot: func(t *testing.T, updates int64) ([]*tensor.Tensor, int64) {
				var all []*tensor.Tensor
				for _, st := range stores {
					if !st.WaitApplied(updates, nil) {
						t.Fatal("data store closed before the fragments were applied")
					}
					params, v := st.Snapshot()
					if v != updates {
						t.Fatalf("data server at version %d, want %d", v, updates)
					}
					all = append(all, params...)
				}
				return all, updates
			},
		}
	}
	t.Fatalf("unknown topology %q", topo)
	return leaseTopology{}
}

// poisonReleasedBodies makes every released receive buffer read as NaN until
// the next frame overwrites it, for the test's duration.
func poisonReleasedBodies(t *testing.T) *atomic.Int64 {
	t.Helper()
	var released atomic.Int64
	nan := math.Float32bits(float32(math.NaN()))
	restore := transport.SetReleaseHook(func(body []byte) {
		released.Add(1)
		for i := 0; i+4 <= len(body); i += 4 {
			body[i], body[i+1], body[i+2], body[i+3] = byte(nan), byte(nan>>8), byte(nan>>16), byte(nan>>24)
		}
	})
	t.Cleanup(restore)
	return &released
}

// TestDenseBufferLeasesSurvivePoisoning is the dense twin of
// TestCodecBufferReuseSurvivesPoisoning: it drives every buffer the dense
// wire path shares between a sender and a reader — the gradient tensors the
// client sends from and the worker overwrites as soon as its push returns,
// the receive buffers the server applies pushes out of and the relay folds
// them out of, the ones the client's pulled weights (and the relay's upstream
// cache) alias until superseded, the relay's recycled sum buffers, and the
// lane push slots a worker computes its push in and a relay sums a partial
// in, rewritten as soon as they read free (Client.PushSlot) — from
// concurrent workers over TCP, the same-host lane and the in-process channel
// transport, on a flat server, a server group and an aggregation tree: one
// ownership rule (transport.Conn), asserted once over all three carriers. A
// replica reads beside the workers, pulling twice per turn: a second pull
// with no push in between is answered Unchanged and returns the first's
// tensors, whose lease it extends.
// Released receive buffers are
// poisoned with NaN the moment they are released, so a lease that ends while
// a reader still holds the buffer shows up as a wrong final sum (the store
// applied poison), a torn or NaN pulled tensor (the worker read poison), or,
// under -race, the racing accesses themselves.
//
// Mutation-checked: releasing the push body right after the enqueue in
// handlePush instead of carrying it to the sequencer (dropping the
// hold-until-applied) fails flat/tcp, group/tcp and both TCP-rooted trees —
// one site now that a worker's push and a relay's partial share the path;
// releasing a pulled reply in decodeWeights
// right after FromWireOwned instead of holding it (dropping the
// hold-until-superseded) fails every case. That a reply a relay has sent
// no longer aliases its pull cache needs a stalled reader to break, which
// TestRelaySentReplyOutlivesSupersededPullCache supplies.
func TestDenseBufferLeasesSurvivePoisoning(t *testing.T) {
	released := poisonReleasedBodies(t)
	for _, tc := range []struct {
		name         string
		topo         string
		tcp, edgeTCP bool
		// lane lets the loopback dials upgrade to the same-host lane, where a
		// leased body is an arena slot; without it they stay on TCP, the
		// cross-host carrier.
		lane bool
	}{
		{"flat/tcp", "flat", true, true, false},
		{"flat/lane", "flat", true, true, true},
		{"flat/channel", "flat", false, false, false},
		{"group/tcp", "group", true, true, false},
		{"group/lane", "group", true, true, true},
		{"group/channel", "group", false, false, false},
		{"tree/tcp", "tree", true, true, false},
		{"tree/lane", "tree", true, true, true},
		{"tree/channel", "tree", false, false, false},
		// In-process children behind a relay whose upstream is a socket: the
		// replies they hold must not alias the relay's pull cache.
		{"tree/tcp-root-inproc-children", "tree", true, false, false},
		{"tree/lane-root-inproc-children", "tree", true, false, true},
	} {
		{
			topo, tcp := tc.topo, tc.tcp
			t.Run(tc.name, func(t *testing.T) {
				t.Cleanup(transport.SetLaneEnabled(tc.lane))
				before := released.Load()
				// Frames big enough to be leased (over 4 KB), with a slab that
				// leaves by reference (over 16 KB) next to ones that go inline.
				initial := []*tensor.Tensor{tensor.New(96, 64), tensor.New(33), tensor.New(40, 30), tensor.New(2048)}
				const workers, rounds = 4, 50
				top := startLeaseTopology(t, topo, tcp, tc.edgeTCP, workers, initial)
				stopReader := readTwicePerTurn(t, top)
				defer stopReader()

				// Small integers: their float32 sums are exact, so the final
				// weights are known to the bit.
				value := func(w, r int) float32 { return float32(1 + (w*rounds+r)%9) }
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						c, err := top.connect(w)
						if err != nil {
							t.Error(err)
							return
						}
						defer c.Close()
						grads := make([]*tensor.Tensor, len(initial))
						for i, p := range initial {
							grads[i] = tensor.New(p.Shape()...)
						}
						last := make([]float32, len(initial))
						lastVersion := int64(0)
						for r := 0; r < rounds; r++ {
							params, version, err := c.Pull()
							if err != nil {
								t.Error(err)
								return
							}
							if version < lastVersion {
								t.Errorf("worker %d round %d: version went back from %d to %d", w, r, lastVersion, version)
								return
							}
							lastVersion = version
							for i, p := range params {
								v := p.Data()[0]
								for _, x := range p.Data() {
									if x != v {
										t.Errorf("worker %d round %d: pulled tensor %d is torn (%v and %v)", w, r, i, v, x)
										return
									}
								}
								// lr 1 over positive gradients: weights only fall.
								if v > last[i] {
									t.Errorf("worker %d round %d: tensor %d went back from %v to %v", w, r, i, last[i], v)
									return
								}
								last[i] = v
							}
							// Each gradient is computed in the push slot when
							// its connection has one free, at home otherwise.
							pushed := slotOrHome(c.PushSlot(grads), grads)
							for _, g := range pushed {
								g.Fill(value(w, r))
							}
							if err := c.PushAndWait(pushed, version, r); err != nil {
								t.Error(err)
								return
							}
							// The push returned; the caller's buffers are free,
							// and so is a slot that says it is.
							for _, g := range slotOrHome(c.PushSlot(grads), grads) {
								g.Fill(1e6)
							}
						}
						if err := c.Done(); err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
				}

				var want float32
				for w := 0; w < workers; w++ {
					for r := 0; r < rounds; r++ {
						want -= value(w, r)
					}
				}
				params, version := top.snapshot(t, workers*rounds)
				if version != workers*rounds {
					t.Fatalf("final version %d, want %d", version, workers*rounds)
				}
				// Every push is applied: the reader's last turn is gated.
				gated := stopReader()
				if gated == 0 && !t.Failed() {
					t.Error("no replica pull was answered Unchanged")
				}
				t.Logf("%d of the replica's second pulls were answered Unchanged", gated)
				for i, p := range params {
					for j, v := range p.Data() {
						if v != want {
							t.Fatalf("param %d[%d] = %v, want %v — a recycled buffer reached an optimizer step", i, j, v, want)
						}
					}
				}
				// A tree folds pushes and shares pulls, so the count is loose:
				// every round moves at least one leased frame per direction.
				if n := released.Load() - before; n < 2*rounds {
					t.Errorf("only %d receive buffers were released over %d rounds of pushes and pulls: leases are not ending", n, rounds)
				}
				// Whatever hop is a lane sends from its push slot: the
				// workers' pushes, and a relay's partials.
				fromWorkers, fromTrunk := top.inPlace()
				if want := tc.lane && tc.edgeTCP; (fromWorkers > 0) != want {
					t.Errorf("%v worker pushes left from a push slot, want some: %v", fromWorkers, want)
				}
				if want := tc.lane && topo == "tree"; (fromTrunk > 0) != want {
					t.Errorf("%v relay partials left from the trunk's push slot, want some: %v", fromTrunk, want)
				}
			})
		}
	}
}

// readTwicePerTurn starts a replica of top pulling twice per turn, checking
// what every pull returned once the next one has landed: each tensor uniform
// (not torn, not poison) and never above its last value (lr 1 over positive
// gradients). A second pull answered Unchanged returns the first's tensors,
// on a lease the Unchanged reply extended; after a full one the first's
// tensors are superseded and only the second's are read. The returned stop
// ends the reader after one more turn and reports how many second pulls were
// answered Unchanged; it may be called again.
func readTwicePerTurn(t *testing.T, top leaseTopology) (stop func() (gated int)) {
	quit := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		gated := 0
		defer func() { done <- gated }()
		r, err := top.replica()
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close()
		var last []float32
		check := func(params []*tensor.Tensor) bool {
			if last == nil {
				last = make([]float32, len(params))
			}
			for i, p := range params {
				v := p.Data()[0]
				for _, x := range p.Data() {
					if x != v {
						t.Errorf("replica: pulled tensor %d is torn (%v and %v)", i, v, x)
						return false
					}
				}
				if v > last[i] {
					t.Errorf("replica: tensor %d went back from %v to %v", i, last[i], v)
					return false
				}
				last[i] = v
			}
			return true
		}
		for stopping := false; !stopping; {
			select {
			case <-quit:
				stopping = true
			default:
			}
			first, version, err := r.Pull()
			if err != nil {
				t.Error(err)
				return
			}
			_, before := r.Traffic()
			again, againVersion, err := r.Pull()
			if err != nil {
				t.Error(err)
				return
			}
			read := again
			if _, after := r.Traffic(); after == before {
				gated++
				if againVersion != version || &again[0] != &first[0] {
					t.Errorf("replica: an Unchanged pull returned version %d and another reply than the one at %d", againVersion, version)
					return
				}
				read = first
			}
			if !check(read) {
				return
			}
		}
	}()
	var once sync.Once
	var gated int
	return func() int {
		once.Do(func() {
			close(quit)
			gated = <-done
		})
		return gated
	}
}

// slotOrHome is the tensors a push computes its gradients in: the push
// slot's (Client.PushSlot) where there are, home's elsewhere.
func slotOrHome(slot, home []*tensor.Tensor) []*tensor.Tensor {
	out := append([]*tensor.Tensor(nil), home...)
	for i, s := range slot {
		if s != nil {
			out[i] = s
		}
	}
	return out
}

// TestClusterPullLeaseOutlivesReplacedLink: a ClusterClient replaces a dead
// data link inside PushAndWait, but what its last Pull handed out stays
// readable until the next Pull (Client.Pull's contract, which the worker loop
// trains on): the replaced link's receive buffers are neither released —
// poison — nor, on the lane, left to finalizers that unmap the arena under
// the reader — a fault.
func TestClusterPullLeaseOutlivesReplacedLink(t *testing.T) {
	poisonReleasedBodies(t)
	for _, carrier := range []string{"tcp", "lane", "channel"} {
		t.Run(carrier, func(t *testing.T) {
			t.Cleanup(transport.SetLaneEnabled(carrier == "lane"))
			initial := []*tensor.Tensor{tensor.Full(3, 96, 64), tensor.Full(3, 33), tensor.Full(3, 40, 30), tensor.Full(3, 8192)}
			top := startLeaseTopology(t, "group", carrier != "channel", true, 1, initial)
			c, err := top.connect(0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			params, version, err := c.Pull()
			if err != nil {
				t.Fatal(err)
			}
			top.replace(t, 0)
			grads := make([]*tensor.Tensor, len(initial))
			for i, p := range initial {
				grads[i] = tensor.Full(1, p.Shape()...)
			}
			if err := c.PushAndWait(grads, version, 0); err != nil {
				t.Fatal(err)
			}
			// Whatever a finalizer would give back, it gives back now.
			runtime.GC()
			runtime.GC()
			for i, p := range params {
				for j, v := range p.Data() {
					if v != 3 {
						t.Fatalf("pulled tensor %d[%d] reads %v after its link was replaced, want 3", i, j, v)
					}
				}
			}
			if _, _, err := c.Pull(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// countingProxy forwards one TCP connection to target, counting the bytes in
// each direction: the raw on-wire truth the transport meters are held to.
func countingProxy(t *testing.T, target string) (addr string, up, down *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	up, down = new(atomic.Int64), new(atomic.Int64)
	go func() {
		client, err := l.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", target)
		if err != nil {
			client.Close()
			return
		}
		pipe := func(dst, src net.Conn, n *atomic.Int64) {
			buf := make([]byte, 64<<10)
			for {
				k, err := src.Read(buf)
				if k > 0 {
					// Counted before forwarding, so a byte the far end has
					// seen is always already in the count.
					n.Add(int64(k))
					if _, werr := dst.Write(buf[:k]); werr != nil {
						return
					}
				}
				if err != nil {
					dst.Close()
					return
				}
			}
		}
		go pipe(server, client, up)
		pipe(client, server, down)
	}()
	return l.Addr().String(), up, down
}

// TestMeteringExactWithByReferenceSlabs holds the transport meters and
// Client.Traffic to what they counted before slabs left by reference: over a
// 1 MB dense push and the pull that follows, dssp_transport_bytes_total
// on both ends equals the bytes a proxy saw on the raw sockets, frame for
// frame, and Traffic is the same payload formula as ever.
func TestMeteringExactWithByReferenceSlabs(t *testing.T) {
	model := []*tensor.Tensor{tensor.New(8192, 32), tensor.New(32), tensor.New(32, 8), tensor.New(8)}
	st, err := NewStoreSharded(model, optimizer.NewSGD(0.001), 2)
	if err != nil {
		t.Fatal(err)
	}
	srvReg, cliReg := obs.NewRegistry(), obs.NewRegistry()
	srv, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st, Metrics: srvReg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	l, err := transport.ListenWireMetered("127.0.0.1:0", transport.WireBinary, transport.NewMetrics(srvReg))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()
	proxyAddr, up, down := countingProxy(t, l.Addr())
	conn, err := transport.DialWireMetered(proxyAddr, transport.WireBinary, transport.NewMetrics(cliReg))
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(conn, 0)
	defer c.Close()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	grads := make([]*tensor.Tensor, len(model))
	var payload int64
	for i, p := range model {
		grads[i] = tensor.Full(0.5, p.Shape()...)
		payload += int64(4*p.Size() + 4*p.Dims() + 8)
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		if _, _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
		if err := c.PushAndWait(grads, int64(r), r); err != nil {
			t.Fatal(err)
		}
	}
	total := func(snap map[string]float64, dir string) int64 {
		var n float64
		for _, typ := range []string{"Register", "Registered", "Push", "OK", "Pull", "Weights"} {
			n += snap[fmt.Sprintf(`dssp_transport_bytes_total{dir=%q,type=%q}`, dir, typ)]
		}
		return int64(n)
	}
	// The last exchange was a reply the client has fully read, so the wire is
	// quiescent — but a sender meters a frame after its write returns, so the
	// server's writer may still be about to count the final OK.
	deadline := time.Now().Add(5 * time.Second)
	for total(srvReg.Snapshot(), "sent") != down.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cli, server := cliReg.Snapshot(), srvReg.Snapshot()
	if got, want := total(cli, "sent"), up.Load(); got != want {
		t.Errorf("client metered %d bytes sent, the socket carried %d", got, want)
	}
	if got, want := total(server, "recv"), up.Load(); got != want {
		t.Errorf("server metered %d bytes received, the socket carried %d", got, want)
	}
	if got, want := total(server, "sent"), down.Load(); got != want {
		t.Errorf("server metered %d bytes sent, the socket carried %d", got, want)
	}
	if got, want := total(cli, "recv"), down.Load(); got != want {
		t.Errorf("client metered %d bytes received, the socket carried %d", got, want)
	}
	if push := cli[`dssp_transport_bytes_total{dir="sent",type="Push"}`]; int64(push) < rounds*payload {
		t.Errorf("Push frames metered at %v bytes, below their %d-byte payload: by-reference slabs are not counted", push, rounds*payload)
	}
	if pushed, pulled := c.Traffic(); pushed != rounds*payload || pulled != rounds*payload {
		t.Errorf("Traffic reports %d pushed / %d pulled, want %d each", pushed, pulled, rounds*payload)
	}
}

// TestMeteringIdenticalOnEveryCarrier holds the in-process transport's meter
// to the socket's: the same scripted exchange — register, then three rounds of
// pull, 1 MB dense push, OK — meters the same frames and the same bytes per
// message type and direction on the server end of a channel connection, of a
// TCP one and of a lane one, because all three count encoded frames (header
// and body), not estimates.
func TestMeteringIdenticalOnEveryCarrier(t *testing.T) {
	const rounds = 3
	types := []string{"Register", "Registered", "Push", "OK", "Pull", "Weights"}
	meter := func(carrier string) map[string]float64 {
		reg := obs.NewRegistry()
		c, grads := startDense(t, carrier, reg, compress.Config{})
		for r := 0; r < rounds; r++ {
			if _, _, err := c.Pull(); err != nil {
				t.Fatal(err)
			}
			if err := c.PushAndWait(grads, int64(r), r); err != nil {
				t.Fatal(err)
			}
		}
		// A sender meters a frame after it is handed over, so the server's
		// writer may still be about to count the final OK.
		deadline := time.Now().Add(5 * time.Second)
		for reg.Snapshot()[`dssp_transport_frames_total{dir="sent",type="OK"}`] < rounds && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		snap, got := reg.Snapshot(), make(map[string]float64)
		for _, family := range []string{"dssp_transport_bytes_total", "dssp_transport_frames_total"} {
			for _, dir := range []string{"sent", "recv"} {
				for _, typ := range types {
					name := fmt.Sprintf("%s{dir=%q,type=%q}", family, dir, typ)
					got[name] = snap[name]
				}
			}
		}
		return got
	}
	want := meter("tcp")
	if push := want[`dssp_transport_bytes_total{dir="recv",type="Push"}`]; push < rounds<<20 {
		t.Fatalf("TCP metered %v bytes of Push frames over %d 1 MB pushes", push, rounds)
	}
	for _, carrier := range []string{"channel", "lane"} {
		got := meter(carrier)
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s meters %s = %v, TCP meters %v", carrier, name, got[name], w)
			}
		}
	}
}

// startDense stands up a one-worker server holding the benchmark's wide MLP
// (1 MB of weights in two store shards) and returns a registered client with
// matching gradients. carrier is "tcp" (a loopback dial held on TCP), "lane"
// (one that may upgrade to the same-host lane) or "channel" (in process), and
// cfg the codec both ends speak (the zero value: none). A non-nil reg
// receives the server's metrics and its listener's transport meter.
func startDense(tb testing.TB, carrier string, reg *obs.Registry, cfg compress.Config) (*Client, []*tensor.Tensor) {
	tb.Helper()
	defer transport.SetLaneEnabled(carrier == "lane")()
	var meter *transport.Metrics
	if reg != nil {
		meter = transport.NewMetrics(reg)
	}
	model := []*tensor.Tensor{tensor.New(8192, 32), tensor.New(32), tensor.New(32, 8), tensor.New(8)}
	st, err := NewStoreSharded(model, optimizer.NewSGD(0.001), 2)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st, Metrics: reg,
		Options: Options{Compression: cfg}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Stop)
	var conn transport.Conn
	if carrier == "channel" {
		l := transport.NewChanListener()
		l.SetMeter(meter)
		tb.Cleanup(func() { l.Close() })
		go func() { _ = srv.Serve(l) }()
		conn, err = l.Dial()
	} else {
		var l transport.Listener
		if l, err = transport.ListenWireMetered("127.0.0.1:0", transport.WireBinary, meter); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { l.Close() })
		go func() { _ = srv.Serve(l) }()
		conn, err = transport.Dial(l.Addr())
	}
	if err != nil {
		tb.Fatal(err)
	}
	c, err := NewClientCompressed(conn, 0, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	if err := c.Register(); err != nil {
		tb.Fatal(err)
	}
	grads := make([]*tensor.Tensor, len(model))
	for i, p := range model {
		grads[i] = tensor.Full(0.25, p.Shape()...)
	}
	return c, grads
}

// TestDensePushPullRoundTripAllocatesNoPayload is the allocation ceiling of
// the dense wire path: once warm, a 1 MB push plus the 1 MB pull that follows
// — client encode, server decode, apply, COW publication, the reply,
// client decode, everything both processes' goroutines do — allocates less
// than 64 KB in total, so no buffer that scales with the payload is allocated
// anywhere, and only a bounded number of small objects (message headers, wire
// tensor lists, tensor headers). The same ceiling holds on the same-host lane,
// where the payload-sized buffers are arena slots, and in process, where they
// are the channel transport's pooled frames.
func TestDensePushPullRoundTripAllocatesNoPayload(t *testing.T) {
	for _, carrier := range []string{"tcp", "lane", "channel"} {
		t.Run(carrier, func(t *testing.T) { testDensePushPullRoundTripAllocatesNoPayload(t, carrier) })
	}
}

func testDensePushPullRoundTripAllocatesNoPayload(t *testing.T, carrier string) {
	c, grads := startDense(t, carrier, nil, compress.Config{})
	round := func(i int) {
		if err := c.PushAndWait(grads, int64(i), i); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up fills the free lists, the store's generation pool and the
	// connection buffers.
	for i := 0; i < 8; i++ {
		round(i)
	}
	const rounds = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round(8 + i)
	}
	runtime.ReadMemStats(&after)
	bytesPerRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	objectsPerRound := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("steady-state 1 MB push + pull: %.0f B and %.1f objects allocated per round trip", bytesPerRound, objectsPerRound)
	if bytesPerRound >= 64<<10 {
		t.Errorf("a steady-state round trip allocates %.0f bytes: some payload-sized buffer (>= 64 KB) is still allocated per iteration", bytesPerRound)
	}
	if objectsPerRound > 120 {
		t.Errorf("a steady-state round trip allocates %.1f objects, ceiling 120", objectsPerRound)
	}
}

// TestInProcessScheduleRecyclesGenerations pins what the in-process carrier
// gains from keeping transport.Conn's contract: a serial pull/push schedule
// over the channel transport, dense and with fp16 on push and pull, settles
// into the same double-buffering as over a socket — once warm, copy-on-write
// publication allocates no generation (every one recycles a retired one), and
// the packed-pull cache's retired generations are free for the next fill. A
// pull that kept the generation it was served out of the pool would show as
// one allocation per update. Its lane arm holds the same schedule to it where
// a dense pull reply is a reference into the server's generation region (both
// shards are past laneMinBody), so that the worker holds the generation it
// pulled until its next pull: the references it releases free their
// generations in time for the applier.
func TestInProcessScheduleRecyclesGenerations(t *testing.T) {
	for _, carrier := range []string{"channel", "lane"} {
		for _, cfg := range []compress.Config{{}, {Codec: compress.FP16, Pull: true}} {
			cfg = cfg.Normalized()
			name := cfg.String()
			if carrier == "lane" {
				name = "lane/" + name
			}
			t.Run(name, func(t *testing.T) {
				t.Cleanup(transport.SetLaneEnabled(carrier == "lane"))
				model := []*tensor.Tensor{tensor.New(96, 64), tensor.New(33), tensor.New(40, 30), tensor.New(8192)}
				st, err := NewStoreSharded(model, optimizer.NewSGD(0.01), 2)
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st, Options: Options{Compression: cfg}})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Stop()
				_, dial := endpoint(t, carrier == "lane", func(l transport.Listener) { _ = srv.Serve(l) })
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
					grads[i] = tensor.Full(0.25, p.Shape()...)
				}
				references := 0
				rounds := func(from, n int) {
					t.Helper()
					for i := from; i < from+n; i++ {
						params, version, err := c.Pull()
						if err != nil {
							t.Fatal(err)
						}
						if !writable(params[0]) {
							references++
						}
						if err := c.PushAndWait(grads, version, i); err != nil {
							t.Fatal(err)
						}
					}
				}
				const warmup, steady = 8, 40
				rounds(0, warmup)
				reusedWarm, allocatedWarm := cloneFates(st)
				references = 0
				rounds(warmup, steady)
				reused, allocated := cloneFates(st)
				if allocated != allocatedWarm {
					t.Errorf("%d generations allocated over %d steady-state rounds, want 0: pulls keep generations out of the reuse pool", allocated-allocatedWarm, steady)
				}
				if reused < reusedWarm+steady {
					t.Errorf("%d generations recycled over %d steady-state rounds on %d shards, want at least one a round", reused-reusedWarm, steady, st.Shards())
				}
				if want := carrier == "lane" && !cfg.Pull; (references == steady) != want {
					t.Errorf("%d of %d steady-state pulls were references into the region, want all: %v", references, steady, want)
				}
				for i, sh := range st.shards {
					sh.packedMu.Lock()
					for _, pg := range sh.packedRetired {
						if !pg.quiescent() {
							t.Errorf("shard %d: a retired packed generation is still held after its reply was sent", i)
						}
					}
					sh.packedMu.Unlock()
				}
			})
		}
	}
}

// BenchmarkTCPDensePushPull1MB is the flat-comm iteration without the model:
// one worker pushing 1 MB of dense gradients and pulling 1 MB of weights over
// loopback TCP — held on TCP, the carrier of every cross-host connection, so
// that path cannot regress unseen behind the lane. MB/s counts both
// directions' payload; B/op is where a reintroduced per-frame allocation
// shows first.
func BenchmarkTCPDensePushPull1MB(b *testing.B) { benchDensePushPull1MB(b, "tcp") }

// BenchmarkLaneDensePushPull1MB is the same round trip between same-host
// peers, as a loopback dial finds it: payload bodies through the shared
// arena, headers on the unix socket.
func BenchmarkLaneDensePushPull1MB(b *testing.B) { benchDensePushPull1MB(b, "lane") }

// BenchmarkLaneFP16PushPull1MB is the same round trip under fp16 on push and
// pull, flat-comm-fp16's codec: each push encoded in the lane's push slot and
// stepped from its payload by the store, each pull of the large shard a
// reference to its packed generation in the server's region. MB/s counts the
// dense payload both ways, as the dense benchmark's does.
func BenchmarkLaneFP16PushPull1MB(b *testing.B) {
	benchPushPull1MB(b, "lane", compress.Config{Codec: compress.FP16, Pull: true})
}

func benchDensePushPull1MB(b *testing.B, carrier string) {
	benchPushPull1MB(b, carrier, compress.Config{})
}

func benchPushPull1MB(b *testing.B, carrier string, cfg compress.Config) {
	c, grads := startDense(b, carrier, nil, cfg)
	var payload int64
	for _, g := range grads {
		payload += int64(4 * g.Size())
	}
	for i := 0; i < 4; i++ {
		if err := c.PushAndWait(grads, int64(i), i); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Pull(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(2 * payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PushAndWait(grads, int64(i), i); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Pull(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRelaySentReplyOutlivesSupersededPullCache pins Relay.handlePull's
// lease rule where the soak test above cannot reach it deterministically: a
// relay whose upstream is a socket serves its pull cache to a child on the
// channel transport, the child sits on the message without decoding it, and
// the cached reply is superseded — its receive buffer released, poisoned —
// by the next upstream pull. The child's message must still read the weights
// it was sent: Send was done with the cache's tensors when it returned, and
// the message owns the buffer it arrived in (transport.Conn).
func TestRelaySentReplyOutlivesSupersededPullCache(t *testing.T) {
	poisonReleasedBodies(t)
	initial := []*tensor.Tensor{tensor.Full(3, 4096)}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(1.0), 1)
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
	_, dialRelay := endpoint(t, false, func(l transport.Listener) { _ = relay.Serve(l) })

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
	// Child 0 pulls by hand and keeps the undecoded reply.
	if err := conns[0].Send(transport.Message{Type: transport.MsgPull, Worker: 0}); err != nil {
		t.Fatal(err)
	}
	held, err := conns[0].Recv()
	if err != nil || held.Type != transport.MsgWeights || len(held.Tensors) != 1 {
		t.Fatalf("pull through the relay answered %v (%v)", held.Type, err)
	}
	// The root moves on; child 1's pull refreshes the relay's cache.
	if _, err := st.Apply([]*tensor.Tensor{tensor.Full(1, 4096)}); err != nil {
		t.Fatal(err)
	}
	params, _, err := clients[1].Pull()
	if err != nil {
		t.Fatal(err)
	}
	if v := params[0].Data()[0]; v != 2 {
		t.Fatalf("child 1 pulled %v, want the updated weight 2", v)
	}
	for i, v := range held.Tensors[0].Data {
		if v != 3 {
			t.Fatalf("value %d of the reply child 0 still holds reads %v, want 3: it aliased a receive buffer the relay has handed back", i, v)
		}
	}
}

// TestPushSlotWaitsForTheReceiversRelease: a receiver may answer a push
// before it releases it (the servers here release first; the contract does
// not ask them to), and until it does the worker's push slot is not handed
// out again — the push computed elsewhere meanwhile is copied, and neither
// frame is torn.
func TestPushSlotWaitsForTheReceiversRelease(t *testing.T) {
	t.Cleanup(transport.SetLaneEnabled(true))
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	held := make(chan transport.Message, 2)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			reply := transport.MsgOK
			if m.Type == transport.MsgRegister {
				reply = transport.MsgRegistered
			} else {
				held <- m
			}
			if conn.Send(transport.Message{Type: reply, Worker: m.Worker}) != nil {
				return
			}
		}
	}()
	conn, err := transport.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(conn, 1)
	defer c.Close()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	grads := []*tensor.Tensor{tensor.New(64, 128)}
	slot := c.PushSlot(grads)
	if slot == nil {
		t.Fatal("a lane client has no push slot")
	}
	slot[0].Fill(1)
	if err := c.PushAndWait(slot, 1, 1); err != nil {
		t.Fatal(err)
	}
	first := <-held
	if c.PushSlot(grads) != nil {
		t.Fatal("the push slot was handed out while the receiver holds the push sent from it")
	}
	grads[0].Fill(2)
	if err := c.PushAndWait(grads, 1, 2); err != nil {
		t.Fatal(err)
	}
	second := <-held
	for i, m := range []transport.Message{first, second} {
		for _, v := range m.Tensors[0].Data {
			if v != float32(i+1) {
				t.Fatalf("push %d reads %v, want %d", i+1, v, i+1)
			}
		}
	}
	first.Release()
	if c.PushSlot(grads) == nil {
		t.Fatal("the push slot stays busy after the receiver released its push")
	}
	second.Release()
}
