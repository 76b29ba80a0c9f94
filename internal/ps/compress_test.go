package ps

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// startCompressedServer wires a server speaking the given codec to an
// in-process listener and returns it with its listener.
func startCompressedServer(t *testing.T, workers int, cfg compress.Config, st *Store) (*Server, *transport.ChanListener) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Workers: workers,
		Policy:  core.MustNewASP(workers),
		Store:   st,
		Options: Options{Compression: cfg},
	})
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

// dialCompressed connects one client with the given configuration.
func dialCompressed(t *testing.T, l *transport.ChanListener, worker int, cfg compress.Config) (*Client, error) {
	t.Helper()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientCompressed(conn, worker, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.Register(); err != nil {
		c.Close()
		return nil, err
	}
	t.Cleanup(func() { c.Close() })
	return c, nil
}

func TestNewServerRejectsBadCompression(t *testing.T) {
	st := testStore(t)
	for _, cfg := range []compress.Config{
		{Codec: "gzip"},
		{Codec: compress.Auto},
		{Codec: compress.TopK, Pull: true},
	} {
		_, err := NewServer(ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st, Options: Options{Compression: cfg}})
		if err == nil {
			t.Errorf("NewServer accepted compression %v", cfg)
		}
	}
}

func TestRegisterRejectsCodecMismatch(t *testing.T) {
	st := testStore(t)
	_, listener := startCompressedServer(t, 2, compress.Config{Codec: compress.Int8}, st)

	// Plain client against a compressing server.
	if _, err := dialCompressed(t, listener, 0, compress.Config{}); err == nil {
		t.Fatal("uncompressed worker registered on an int8 server")
	} else if !strings.Contains(err.Error(), "compression mismatch") {
		t.Fatalf("mismatch rejected with unrelated error: %v", err)
	}
	// Wrong codec.
	if _, err := dialCompressed(t, listener, 0, compress.Config{Codec: compress.TopK}); err == nil {
		t.Fatal("topk worker registered on an int8 server")
	}
	// Matching codec registers fine.
	if _, err := dialCompressed(t, listener, 0, compress.Config{Codec: compress.Int8}); err != nil {
		t.Fatalf("matching worker rejected: %v", err)
	}
}

func TestRegisterRejectsTopKParameterMismatch(t *testing.T) {
	st := testStore(t)
	_, listener := startCompressedServer(t, 1, compress.Config{Codec: compress.TopK, TopK: 0.25}, st)
	if _, err := dialCompressed(t, listener, 0, compress.Config{Codec: compress.TopK, TopK: 0.5}); err == nil {
		t.Fatal("worker with different topk fraction registered")
	}
	if _, err := dialCompressed(t, listener, 0, compress.Config{Codec: compress.TopK, TopK: 0.25}); err != nil {
		t.Fatalf("matching topk fraction rejected: %v", err)
	}
}

func TestRegisterAutoAdoptsServerCodec(t *testing.T) {
	st := testStore(t)
	serverCfg := compress.Config{Codec: compress.TopK, TopK: 0.5}
	_, listener := startCompressedServer(t, 1, serverCfg, st)

	c, err := dialCompressed(t, listener, 0, compress.Config{Codec: compress.Auto})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.cfg; !got.Equal(serverCfg) {
		t.Fatalf("auto client negotiated %s, want %s", got, serverCfg)
	}
	if c.serverShards != st.Shards() {
		t.Fatalf("client learned %d shards, server has %d", c.serverShards, st.Shards())
	}
	// The adopted codec must actually be used on the wire.
	if err := c.PushAndWait([]*tensor.Tensor{tensor.FromSlice([]float32{1, 2, 3, 4}, 4)}, 0, 0); err != nil {
		t.Fatalf("compressed push after auto negotiation: %v", err)
	}
}

func TestCompressedPushAppliesWithinQuantizationError(t *testing.T) {
	for _, codec := range []string{compress.FP16, compress.Int8, compress.TopK} {
		t.Run(codec, func(t *testing.T) {
			initial := []*tensor.Tensor{tensor.New(8), tensor.New(3, 5)}
			st, err := NewStoreSharded(initial, optimizer.NewSGD(1.0), 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := compress.Config{Codec: codec, TopK: 1.0} // topk with k=n is lossless
			_, listener := startCompressedServer(t, 1, cfg, st)
			c, err := dialCompressed(t, listener, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(4))
			grads := make([]*tensor.Tensor, len(initial))
			for i, p := range initial {
				g := tensor.New(p.Shape()...)
				for j := range g.Data() {
					g.Data()[j] = float32(rng.NormFloat64())
				}
				grads[i] = g
			}
			if err := c.PushAndWait(grads, 0, 0); err != nil {
				t.Fatal(err)
			}

			params, version, err := c.Pull()
			if err != nil {
				t.Fatal(err)
			}
			if version != 1 {
				t.Fatalf("store version after push = %d, want 1", version)
			}
			// lr=1 plain SGD: params == -decoded(grads); the worst decode
			// error across codecs is int8's half quantization step.
			for i, p := range params {
				var maxAbs float64
				for _, v := range grads[i].Data() {
					if a := math.Abs(float64(v)); a > maxAbs {
						maxAbs = a
					}
				}
				tol := maxAbs/127/2 + 1e-3
				want := grads[i].Clone().Scale(-1)
				if !p.ApproxEqual(want, tol) {
					t.Fatalf("codec %s: applied update drifted beyond %g", codec, tol)
				}
			}

			pushed, pulled := c.Traffic()
			if pushed <= 0 || pulled <= 0 {
				t.Fatalf("traffic accounting missing: pushed=%d pulled=%d", pushed, pulled)
			}
		})
	}
}

func TestCompressedPullDeliversQuantizedWeights(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(16), tensor.New(4, 4)}
	rng := rand.New(rand.NewSource(9))
	for _, p := range initial {
		for j := range p.Data() {
			p.Data()[j] = float32(rng.NormFloat64())
		}
	}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.1), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := compress.Config{Codec: compress.FP16, Pull: true}
	_, listener := startCompressedServer(t, 1, cfg, st)
	c, err := dialCompressed(t, listener, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}

	params, _, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := st.Snapshot()
	for i := range want {
		// fp16 keeps ~3 decimal digits for values of magnitude ~1.
		if !params[i].ApproxEqual(want[i], 2e-3) {
			t.Fatalf("pulled tensor %d drifted beyond fp16 tolerance", i)
		}
	}
	pushed, pulled := c.Traffic()
	dense := int64(4 * (16 + 4*4))
	if pulled >= dense {
		t.Fatalf("compressed pull accounted %d bytes, dense would be %d", pulled, dense)
	}
	if pushed != 0 {
		t.Fatalf("pull-only client accounted %d pushed bytes", pushed)
	}
}

// TestPushErrorStillReleasesBarrierWorkers guards the failure path of
// handlePush: when the round-completing push fails to decode or apply, the
// policy has already decided to release the barrier — those releases must
// still go out (only the erroring worker gets the error), or BSP/SSP runs
// deadlock on a single bad payload.
func TestPushErrorStillReleasesBarrierWorkers(t *testing.T) {
	st := testStore(t, 2)
	_, clients := startTestServer(t, core.MustNewBSP(2), st)

	good := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1}, 2)}
	bad := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1, 1}, 3)} // wrong shape

	released := make(chan error, 1)
	go func() { released <- clients[0].PushAndWait(good, 0, 0) }()
	time.Sleep(20 * time.Millisecond) // let worker 0 reach the barrier

	// Worker 1 completes the round with a gradient the store rejects.
	if err := clients[1].PushAndWait(bad, 0, 0); err == nil {
		t.Fatal("bad-shape push reported success")
	}
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("barrier worker released with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker 0 never released after the round's failing push: deadlock")
	}
}

func TestPackedShardCachesUntilApply(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(8), tensor.New(8)}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	pack := func(dst []compress.Packed, ts []*tensor.Tensor) []compress.Packed {
		calls++
		return compress.PackInto(dst, ts, compress.Config{Codec: compress.FP16})
	}

	a, pinA := st.acquirePacked(0, pack)
	b, pinB := st.acquirePacked(0, pack)
	if calls != 1 {
		t.Fatalf("second acquirePacked recompressed (calls=%d)", calls)
	}
	if len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
		t.Fatal("second acquirePacked did not serve the cached packed form")
	}
	pinA.release()
	pinB.release()

	grads := []*tensor.Tensor{tensor.Full(1, 8), tensor.Full(1, 8)}
	if _, err := st.Apply(grads); err != nil {
		t.Fatal(err)
	}
	version := st.Version()
	packed, pin := st.acquirePacked(0, pack)
	defer pin.release()
	if calls != 2 {
		t.Fatalf("acquirePacked after Apply served stale cache (calls=%d)", calls)
	}
	if version != 1 {
		t.Fatalf("store version before acquirePacked = %d, want 1", version)
	}
	dec, err := compress.DecompressAllReuse(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := st.Snapshot()
	for i := range want {
		if !dec[i].ApproxEqual(want[i], 1e-3) {
			t.Fatalf("packed shard tensor %d does not match store", i)
		}
	}
}

// TestFP16PushUnderAggregatorMatchesDecodedApply covers the one condition
// Store.stepsHalf still tests. Under a robust aggregator (clipped) an fp16
// server decodes each push, and the aggregator reads the float32 copy; under
// AggSum it steps from the half payload as it arrived. Either way the
// weights must equal, bit for bit, those of a store with the same
// aggregator fed the decoded tensors, and under the clip differ from a plain
// sum's. The pushed values are fp16-exact, so the client's encoding is
// lossless and the decoded tensors are the ones pushed.
func TestFP16PushUnderAggregatorMatchesDecodedApply(t *testing.T) {
	cfg := compress.Config{Codec: compress.FP16}
	for _, agg := range []AggregatorConfig{{Kind: AggSum}, {Kind: AggClipped, ClipNorm: 0.5}} {
		t.Run(string(agg.Kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(64))
			initial := []*tensor.Tensor{tensor.New(6, 5), tensor.New(5), tensor.New(5, 3)}
			for _, p := range initial {
				p.RandNormal(rng, 0, 0.5)
			}
			st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.1, 0.9), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ref, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.1, 0.9), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			plain, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.1, 0.9), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			if agg.Kind != AggSum {
				if err := ref.SetAggregator(agg, 0); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := NewServer(ServerConfig{
				Workers: 1,
				Policy:  core.MustNewASP(1),
				Store:   st,
				Options: Options{Compression: cfg, Aggregator: agg},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := st.stepsHalf(), agg.Kind == AggSum; got != want {
				t.Fatalf("stepsHalf() = %v, want %v", got, want)
			}
			listener := transport.NewChanListener()
			go func() { _ = srv.Serve(listener) }()
			t.Cleanup(func() {
				srv.Stop()
				listener.Close()
			})
			c, err := dialCompressed(t, listener, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for it := 0; it < 5; it++ {
				grads := make([]*tensor.Tensor, len(initial))
				for i, p := range initial {
					grads[i] = tensor.New(p.Shape()...).RandNormal(rng, 0, 0.3)
				}
				decoded, err := compress.DecompressAllReuse(compress.Pack(grads, cfg), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.PushAndWait(decoded, int64(it), it); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Apply(decoded); err != nil {
					t.Fatal(err)
				}
				if _, err := plain.Apply(decoded); err != nil {
					t.Fatal(err)
				}
			}
			got, version := st.Snapshot()
			want, _ := ref.Snapshot()
			summed, _ := plain.Snapshot()
			if version != 5 {
				t.Fatalf("store version %d, want 5", version)
			}
			if !sameTensors(got, want) {
				t.Fatal("the fp16 server's weights differ from a store fed the decoded tensors")
			}
			// The clip must engage, or the clipped case tests nothing.
			if equal := sameTensors(got, summed); equal != (agg.Kind == AggSum) {
				t.Fatalf("weights equal to a plain sum's: %v, want %v", equal, !equal)
			}
		})
	}
}
