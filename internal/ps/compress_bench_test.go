package ps

import (
	"testing"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/transport"
)

// codecBenchConfigs are the wire configurations every codec benchmark
// compares: the identity baseline first, then each lossy codec.
func codecBenchConfigs() []compress.Config {
	return []compress.Config{
		{},
		{Codec: compress.FP16},
		{Codec: compress.Int8},
		{Codec: compress.TopK, TopK: 0.1},
	}
}

// startBenchClient wires one client to a fresh ASP server speaking cfg and
// returns the client (the pull path compresses when cfg.Pull is set).
func startBenchClient(b *testing.B, cfg compress.Config) *Client {
	b.Helper()
	st, err := NewStoreSharded(benchModel(), optimizer.NewSGD(0.01), 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Workers: 1,
		Policy:  core.MustNewASP(1),
		Store:   st,
		Options: Options{Compression: cfg},
	})
	if err != nil {
		b.Fatal(err)
	}
	listener := transport.NewChanListener()
	go func() { _ = srv.Serve(listener) }()
	b.Cleanup(func() {
		srv.Stop()
		listener.Close()
	})
	conn, err := listener.Dial()
	if err != nil {
		b.Fatal(err)
	}
	client, err := NewClientCompressed(conn, 0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	if err := client.Register(); err != nil {
		b.Fatal(err)
	}
	return client
}

// BenchmarkPushLatencyByCodec measures a full push round trip — worker-side
// compression, server-side decompression, policy decision and store apply —
// per codec against the uncompressed baseline, reporting the bytes each
// push put on the wire.
func BenchmarkPushLatencyByCodec(b *testing.B) {
	for _, cfg := range codecBenchConfigs() {
		b.Run(cfg.String(), func(b *testing.B) {
			client := startBenchClient(b, cfg)
			grads := benchGrads()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.PushAndWait(grads, int64(i), i); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pushed, _ := client.Traffic()
			b.ReportMetric(float64(pushed)/float64(b.N), "wire-B/op")
		})
	}
}

// BenchmarkPullLatencyByCodec measures a full pull round trip per codec with
// pull-path compression enabled (value codecs only; topk pulls stay dense by
// design), reporting the bytes each pull moved. The store's per-shard packed
// cache makes the quantization cost amortize across pulls.
func BenchmarkPullLatencyByCodec(b *testing.B) {
	for _, cfg := range []compress.Config{
		{},
		{Codec: compress.FP16, Pull: true},
		{Codec: compress.Int8, Pull: true},
	} {
		b.Run(cfg.String(), func(b *testing.B) {
			client := startBenchClient(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := client.Pull(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_, pulled := client.Traffic()
			b.ReportMetric(float64(pulled)/float64(b.N), "wire-B/op")
		})
	}
}

// BenchmarkCompressedTCPPushPull measures the worker iteration over the real
// TCP transport per codec: where smaller compressed payloads turn into fewer
// encoded bytes and fewer syscalls. The "binary/" name prefix dates from when
// a gob encoding ran beside it; it stays so the committed baselines keep
// their history.
func BenchmarkCompressedTCPPushPull(b *testing.B) {
	for _, cfg := range codecBenchConfigs() {
		b.Run("binary/"+cfg.String(), func(b *testing.B) {
			st, err := NewStoreSharded(benchModel(), optimizer.NewSGD(0.01), 0)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := NewServer(ServerConfig{
				Workers: 1,
				Policy:  core.MustNewASP(1),
				Store:   st,
				Options: Options{Compression: cfg},
			})
			if err != nil {
				b.Fatal(err)
			}
			listener, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = srv.Serve(listener) }()
			b.Cleanup(func() {
				srv.Stop()
				listener.Close()
			})
			conn, err := transport.Dial(listener.Addr())
			if err != nil {
				b.Fatal(err)
			}
			client, err := NewClientCompressed(conn, 0, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { client.Close() })
			if err := client.Register(); err != nil {
				b.Fatal(err)
			}
			grads := benchGrads()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.PushAndWait(grads, int64(i), i); err != nil {
					b.Fatal(err)
				}
				if _, _, err := client.Pull(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
