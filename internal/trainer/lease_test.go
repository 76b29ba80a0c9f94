package trainer

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// The worker loop on the carrier table of internal/ps's lease tests (channel,
// TCP, lane). The replica trains on the pulled weights where they landed, so
// the loop itself is now a reader of leased receive buffers: these tests hold
// it to never reading one whose lease has ended, with every released buffer
// poisoned the moment it is released, and to computing exactly what the
// copying loop computed.

// paramHash hashes the bits of params in order.
func paramHash(params []*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var word [4]byte
	for _, p := range params {
		for _, v := range p.Data() {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			h.Write(word[:])
		}
	}
	return h.Sum64()
}

// poisonReleasedBodies makes every released receive buffer read as NaN until
// the next frame overwrites it, for the test's duration.
func poisonReleasedBodies(t *testing.T) {
	t.Helper()
	nan := math.Float32bits(float32(math.NaN()))
	t.Cleanup(transport.SetReleaseHook(func(body []byte) {
		for i := 0; i+4 <= len(body); i += 4 {
			binary.LittleEndian.PutUint32(body[i:], nan)
		}
	}))
}

// cutConn is a connection that dies on its cutAt-th received frame of type
// kind (0-based; Weights when kind is unset): the frame is dropped, the
// connection closed and Recv fails, as when a peer vanishes before its pull
// reply, or before its release.
type cutConn struct {
	transport.Conn
	kind        transport.MessageType
	seen, cutAt int
}

var errCut = errors.New("connection cut by the test")

func (c *cutConn) Recv() (transport.Message, error) {
	kind := c.kind
	if kind == 0 {
		kind = transport.MsgWeights
	}
	msg, err := c.Conn.Recv()
	if err != nil || msg.Type != kind {
		return msg, err
	}
	if c.seen++; c.seen-1 != c.cutAt {
		return msg, nil
	}
	msg.Release()
	_ = c.Conn.Close()
	return transport.Message{}, errCut
}

// TestWorkerLoopLeasesSurvivePoisoning runs a seeded single-worker RunWorker
// — a serial schedule, so every bit of it is determined — against a two-shard
// store whose pull reply is big enough to be leased and to ride a lane slot,
// on each carrier, with dense and fp16 pulls, heartbeats on:
//
//   - the store ends on the parameter hash the copying loop of commit 006d85e
//     reached (recorded per kernel binding at 095f7a8, the last commit with
//     a weight-decay term, with that term 0; the AVX-512 panels reach the
//     AVX2 hashes), and the replica on the hash of the last weights pulled
//     — on the dense lane arms with the pushes computed in the connection's
//     push slot and sent from it uncopied, which the arm checks happened;
//   - after the run — client closed, two collections — the replica reads its
//     own memory: a parameter still aliasing a pooled frame would read poison,
//     one aliasing a lane slot would fault on the unmapped arena;
//   - a pull whose reply is cut leaves the replica on its own storage when
//     the loop reconnects, and the redone iteration changes no bit of the
//     outcome. (Under fp16 a reconnect restarts the push codec's error
//     feedback, in the copying loop as in this one: its cut arms have a hash of
//     their own.)
func TestWorkerLoopLeasesSurvivePoisoning(t *testing.T) {
	poisonReleasedBodies(t)
	const iterations, cutIteration = 12, 5
	// What the run must end on: the store's parameter hash and the replica's,
	// without a cut and with one.
	type hashes struct{ store, replica, storeCut, replicaCut uint64 }
	for _, pull := range []struct {
		name string
		cfg  compress.Config
		want map[string]hashes
	}{
		{"dense", compress.Config{}, map[string]hashes{
			"avx512": {0x8f0a550fe67eef94, 0x7048bed5da8050e7, 0x8f0a550fe67eef94, 0x7048bed5da8050e7},
			"avx2":   {0x8f0a550fe67eef94, 0x7048bed5da8050e7, 0x8f0a550fe67eef94, 0x7048bed5da8050e7},
			"go":     {0x2d0992d7cb8721fa, 0xb2f767cc608f9595, 0x2d0992d7cb8721fa, 0xb2f767cc608f9595},
		}},
		{"fp16", compress.Config{Codec: compress.FP16, Pull: true}, map[string]hashes{
			"avx512": {0xc4c311e472611c8b, 0x574375937934c619, 0x883f4129deb7d04f, 0x9200c1250ac131be},
			"avx2":   {0xc4c311e472611c8b, 0x574375937934c619, 0x883f4129deb7d04f, 0x9200c1250ac131be},
			"go":     {0x5b73d1b1e7d1b434, 0xefcf16a7917bf7f9, 0x8035aa4da1045470, 0xf97de3290dd88c8c},
		}},
	} {
		for _, carrier := range []string{"channel", "tcp", "lane"} {
			for _, fault := range []string{"none", "pull"} {
				t.Run(pull.name+"/"+carrier+"/cut="+fault, func(t *testing.T) {
					t.Cleanup(transport.SetLaneEnabled(carrier == "lane"))
					cfg := pull.cfg.Normalized()

					// 128→64→80: 32 KB and 21 KB of weights, one shard each.
					build := func() *nn.Network { return nn.SmallMLP(rand.New(rand.NewSource(7)), 128, 64, 80) }
					st, err := ps.NewStoreSharded(build().Params(), optimizer.NewSGDMomentum(0.05, 0.9), 2)
					if err != nil {
						t.Fatal(err)
					}
					srv, err := ps.NewServer(ps.ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st,
						Options: ps.Options{Compression: cfg}})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(srv.Stop)
					// The worker's side of every socket connection is metered
					// (the channel transport has no lane to count).
					reg := obs.NewRegistry()
					meter := transport.NewMetrics(reg)
					var dial func() (transport.Conn, error)
					if carrier == "channel" {
						l := transport.NewChanListener()
						t.Cleanup(func() { l.Close() })
						go func() { _ = srv.Serve(l) }()
						dial = l.Dial
					} else {
						l, err := transport.Listen("127.0.0.1:0")
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { l.Close() })
						go func() { _ = srv.Serve(l) }()
						dial = func() (transport.Conn, error) {
							return transport.DialWireMetered(l.Addr(), transport.WireBinary, meter)
						}
					}

					// One Weights frame a pull: the first connection dies on
					// the cut iteration's, if at all.
					cutAt := map[string]int{"none": -1, "pull": cutIteration}[fault]
					dials := 0
					route := ps.Route{
						Dial: func(string) (transport.Conn, error) {
							conn, err := dial()
							if dials++; err == nil && dials == 1 && cutAt >= 0 {
								conn = &cutConn{Conn: conn, cutAt: cutAt}
							}
							return conn, err
						},
						Compression: cfg, Shards: 2,
					}

					// atHome: every parameter and gradient on the storage
					// the replica was built on.
					replica := build()
					tensors := func() []*tensor.Tensor { return append(replica.Params(), replica.Grads()...) }
					var home []*float32
					for _, p := range tensors() {
						home = append(home, &p.Data()[0])
					}
					atHome := func() bool {
						for i, p := range tensors() {
							if &p.Data()[0] != home[i] {
								return false
							}
						}
						return true
					}
					// The first layer's weight gradient storage, poisoned: an
					// fp16 push hands that gradient on as its factors, and
					// where the fused encode runs, nothing writes or reads it.
					firstDW := replica.Grads()[0].Data()
					poison := math.Float32frombits(0x7fbadbad)
					for i := range firstDW {
						firstDW[i] = poison
					}
					train := data.MustSynthetic(data.SyntheticConfig{
						Examples: 64, Classes: 80, Channels: 1, Size: 128, Noise: 0.3, Flat: true, Seed: 3,
					})
					batches, err := data.NewBatchIterator(train, 4, 1)
					if err != nil {
						t.Fatal(err)
					}
					report, err := RunWorker(Worker{
						Connect: func(rejoin bool, lastVersion int64) (ps.WorkerClient, error) {
							if rejoin && !atHome() {
								t.Error("the loop reconnects with the replica still on the lost client's pull lease or push slot")
							}
							return ps.Connect(route, rejoin, lastVersion)
						},
						Reconnect:         true,
						HeartbeatInterval: time.Millisecond,
						Replica:           replica,
						Batches:           batches,
						Iterations:        iterations,
						CrashAt:           NoCrash,
					})
					if err != nil {
						t.Fatal(err)
					}
					wantReconnects := 0
					if fault != "none" {
						wantReconnects = 1
					}
					if report.Iterations != iterations || report.Reconnects != wantReconnects {
						t.Fatalf("%d iterations over %d reconnects, want %d over %d", report.Iterations, report.Reconnects, iterations, wantReconnects)
					}
					// Pushes at iteration 0, the first fp16 push of a
					// connection (its layout places the slot) and every push
					// through a cut connection (which hides the lane) are
					// copied; on the lane arms every other one leaves in
					// place: computed in the push slot, or encoded there.
					inPlace := reg.Snapshot()["dssp_transport_lane_in_place_total"]
					if carrier == "lane" {
						if inPlace < iterations/2 {
							t.Errorf("%v of %d pushes left from the push slot", inPlace, iterations)
						}
					} else if inPlace != 0 {
						t.Errorf("%v pushes counted in place on a %s arm with %s pushes", inPlace, carrier, pull.name)
					}

					// The client is closed; let every finalizer that could
					// give a buffer back run before the replica is read.
					runtime.GC()
					runtime.GC()
					if !atHome() {
						t.Fatal("the replica does not read its own storage after the run")
					}
					if cfg.Codec == compress.FP16 {
						untouched := !slices.ContainsFunc(firstDW, func(v float32) bool { return math.Float32bits(v) != math.Float32bits(poison) })
						if fused := tensor.Kernel() == "avx512"; untouched != fused {
							t.Errorf("the first layer's weight gradient storage untouched=%v after an fp16 run, want %v (kernel=%s): the fused encode ran where it is bound",
								untouched, fused, tensor.Kernel())
						}
					}
					if runtime.GOARCH != "amd64" {
						// Elsewhere the compiler may fuse the Go loops'
						// multiply-adds.
						t.Skip("the recorded parameter hashes are amd64's")
					}
					want := pull.want[tensor.Kernel()]
					if fault != "none" {
						want.store, want.replica = want.storeCut, want.replicaCut
					}
					if got := paramHash(replica.Params()); got != want.replica {
						t.Errorf("replica parameter hash %#x, the copying loop left %#x (kernel=%s)", got, want.replica, tensor.Kernel())
					}
					if !st.WaitApplied(iterations, nil) {
						t.Fatal("store closed before the pushes were applied")
					}
					params, _ := st.Snapshot()
					if got := paramHash(params); got != want.store {
						t.Errorf("store parameter hash %#x, the copying loop reached %#x (kernel=%s)", got, want.store, tensor.Kernel())
					}
				})
			}
		}
	}
}

// pushFlags records the Prefetch flag of every push sent on a connection.
type pushFlags struct {
	transport.Conn
	flags *[]bool
}

func (c *pushFlags) Send(m transport.Message) error {
	if m.Type == transport.MsgPush {
		*c.flags = append(*c.flags, m.Prefetch)
	}
	return c.Conn.Send(m)
}

// TestWorkerLoopPrefetchesEveryPullButTheFirst: on a flat server a run of N
// iterations makes the server send exactly N Weights frames, counted by the
// server end's transport meter — the first pull asked for, each later one
// prefetched behind the release before it — and its last push, after which
// nothing is pulled, asks for none.
func TestWorkerLoopPrefetchesEveryPullButTheFirst(t *testing.T) {
	const iterations = 6
	build := func() *nn.Network { return nn.SmallMLP(rand.New(rand.NewSource(7)), 16, 8, 4) }
	st, err := ps.NewStoreSharded(build().Params(), optimizer.NewSGD(0.05), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ps.NewServer(ps.ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	reg := obs.NewRegistry()
	l := transport.NewChanListener()
	l.SetMeter(transport.NewMetrics(reg))
	t.Cleanup(func() { l.Close() })
	go func() { _ = srv.Serve(l) }()

	var flags []bool
	route := ps.Route{Dial: func(string) (transport.Conn, error) {
		conn, err := l.Dial()
		if err != nil {
			return nil, err
		}
		return &pushFlags{Conn: conn, flags: &flags}, nil
	}}
	train := data.MustSynthetic(data.SyntheticConfig{
		Examples: 16, Classes: 4, Channels: 1, Size: 16, Noise: 0.3, Flat: true, Seed: 3,
	})
	batches, err := data.NewBatchIterator(train, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunWorker(Worker{
		Connect: func(rejoin bool, lastVersion int64) (ps.WorkerClient, error) {
			return ps.Connect(route, rejoin, lastVersion)
		},
		Replica:    build(),
		Batches:    batches,
		Iterations: iterations,
		CrashAt:    NoCrash,
	})
	if err != nil || report.Iterations != iterations {
		t.Fatalf("%d iterations, %v", report.Iterations, err)
	}
	sent := reg.Snapshot()
	if n := sent[`dssp_transport_frames_total{dir="sent",type="Weights"}`]; n != iterations {
		t.Errorf("the server sent %v Weights frames over %d iterations, want one each", n, iterations)
	}
	if n := sent[`dssp_transport_frames_total{dir="recv",type="Pull"}`]; n != 1 {
		t.Errorf("the server received %v Pull frames, want only the first iteration's", n)
	}
	want := []bool{true, true, true, true, true, false}
	if len(flags) != len(want) {
		t.Fatalf("%d pushes, want %d", len(flags), len(want))
	}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("push prefetch flags %v, want %v", flags, want)
		}
	}
}
