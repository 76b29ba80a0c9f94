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
	if c.ServerShards() != st.Shards() {
		t.Fatalf("client learned %d shards, server has %d", c.ServerShards(), st.Shards())
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
			st, err := NewStore(initial, optimizer.NewSGD(1.0))
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
	dec, err := compress.DecompressAll(packed)
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
