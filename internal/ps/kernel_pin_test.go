package ps

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/obs"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// TestCodecKernelsEndToEndPin runs a serial schedule — two workers taking
// strict turns on one goroutine, each pulling, deriving its gradient and
// pushing — against a sharded momentum store holding the wide MLP's parameter
// shapes, and holds the hash of the final parameters to a committed constant:
// one constant per configuration (the two codecs, and dense), reproduced on
// every carrier — in process, loopback TCP, the same-host lane — because all
// three move the same frames under the same ownership rule (transport.Conn).
// The default build (F16C/AVX2 codec kernels where the
// CPU has them) and -tags purego (the Go loops) must both reproduce it: the
// kernels are equal not only one by one (internal/compress/kernels_test.go)
// but through compress -> frame -> decode -> apply on the push path and pack
// -> frame -> in-place decode on the pull path, error-feedback residuals
// carried across all of it.
//
// On the lane every push after the first is encoded in the connection's push
// slot under a value codec, and every pull of the large shard is a reference
// into the server's generation region — dense weights or, under the pull
// codec, their packed form — which the lane arm asserts, so that a silent
// fallback to copies cannot pass the pin.
//
// The gradient is an elementwise function of the pulled weights and a seeded
// noise stream rather than a backward pass: internal/tensor's assembly matmul
// agrees with its Go loops within a tolerance, not to the bit, so a computed
// gradient would make the hash depend on the build for a reason that has
// nothing to do with the codecs. Its magnitude is swept from 1e-2 down to
// 1e-7 so payloads cross the fp16 normal, subnormal and underflow ranges.
func TestCodecKernelsEndToEndPin(t *testing.T) {
	for _, tc := range []struct {
		cfg  compress.Config
		want string
	}{
		{compress.Config{Codec: compress.FP16, Pull: true}, "2a32569a42255ad1"},
		{compress.Config{Codec: compress.Int8}, "7de9432f984f4fd5"},
		{compress.Config{}.Normalized(), "b0bd274cbee3093e"},
	} {
		for _, carrier := range []string{"channel", "tcp", "lane"} {
			t.Run(tc.cfg.String()+"/"+carrier, func(t *testing.T) {
				testCodecKernelsEndToEndPin(t, tc.cfg, carrier, tc.want)
			})
		}
	}
}

func testCodecKernelsEndToEndPin(t *testing.T, cfg compress.Config, carrier, want string) {
	t.Cleanup(transport.SetLaneEnabled(carrier == "lane"))
	const workers, iterations = 2, 24
	rng := rand.New(rand.NewSource(20))
	initial := []*tensor.Tensor{tensor.New(8192, 32), tensor.New(32), tensor.New(32, 8), tensor.New(8)}
	for _, p := range initial {
		p.RandNormal(rng, 0, 0.05)
	}
	st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.1, 0.9), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := NewServer(ServerConfig{
		Workers: workers,
		Policy:  core.MustNewASP(workers),
		Store:   st,
		Options: Options{Compression: cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	reg := obs.NewRegistry()
	_, dial := meteredEndpoint(t, carrier != "channel", transport.NewMetrics(reg), func(l transport.Listener) { _ = srv.Serve(l) })

	clients := make([]*Client, workers)
	grads := make([][]*tensor.Tensor, workers)
	for w := range clients {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClientCompressed(conn, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Register(); err != nil {
			t.Fatal(err)
		}
		clients[w] = c
		for _, p := range initial {
			grads[w] = append(grads[w], tensor.New(p.Shape()...))
		}
	}
	for it := 0; it < iterations; it++ {
		noise := float32(math.Pow(10, -2-float64(it%6)))
		for w, c := range clients {
			params, version, err := c.Pull()
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range params {
				g := grads[w][i].Data()
				for j, v := range p.Data() {
					// The conversions keep the product and the sum
					// separately rounded on every architecture.
					g[j] = float32(0.01*v) + float32(noise*float32(rng.NormFloat64()))
				}
			}
			if err := c.PushAndWait(grads[w], version, it); err != nil {
				t.Fatal(err)
			}
		}
	}

	if carrier == "lane" {
		counts := reg.Snapshot()
		if cfg.Enabled() && counts["dssp_transport_lane_in_place_total"] == 0 {
			t.Errorf("no %s push was encoded in the push slot", cfg.Codec)
		}
		if counts["dssp_transport_lane_refs_total"] == 0 {
			t.Errorf("no pull reply was a reference into the server's region")
		}
	}

	final, version := st.Snapshot()
	if version != workers*iterations {
		t.Fatalf("store at version %d after %d pushes", version, workers*iterations)
	}
	h := fnv.New64a()
	var word [4]byte
	for _, p := range final {
		for _, v := range p.Data() {
			if v != v {
				t.Fatal("final parameters hold a NaN")
			}
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			h.Write(word[:])
		}
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	if runtime.GOARCH != "amd64" {
		// Elsewhere the compiler may fuse the Go loops' multiply-adds.
		t.Skipf("final-parameter hash %s; the committed constant is amd64's", got)
	}
	if got != want {
		t.Fatalf("final-parameter hash %s (kernel=%s), want %s: the codec kernels no longer agree with the committed run",
			got, compress.Kernel(), want)
	}
}
