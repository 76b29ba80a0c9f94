package trainer

import (
	"math/rand"
	"testing"

	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/optimizer"
	"dssp/internal/ps"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// BenchmarkWorkerIteration is one iteration of the worker loop at the
// end-to-end benchmark's flat-comm shape — the wide MLP (8192×32 + 32×8,
// 1 MB of parameters), batch 4, a two-shard store stepping plain SGD — over
// the in-process channel carrier: pull, install, forward, backward, push,
// apply, release, with one worker so nothing overlaps. ns/op is the
// iteration; B/op is where a payload-sized copy or allocation coming back
// into the loop shows first. The name carries the bound kernel, as
// tensor.BenchmarkMatMul128's does: the products and the store's step run
// on it.
func BenchmarkWorkerIteration(b *testing.B) {
	b.Run("kernel="+tensor.Kernel(), func(b *testing.B) {
		build := func() *nn.Network { return nn.SmallMLP(rand.New(rand.NewSource(1)), 8192, 32, 8) }
		st, err := ps.NewStoreSharded(build().Params(), optimizer.NewSGD(0.001), 2)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := ps.NewServer(ps.ServerConfig{Workers: 1, Policy: core.MustNewASP(1), Store: st})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Stop()
		l := transport.NewChanListener()
		defer l.Close()
		go func() { _ = srv.Serve(l) }()
		route := ps.Route{Dial: func(string) (transport.Conn, error) { return l.Dial() }}

		train := data.MustSynthetic(data.SyntheticConfig{
			Examples: 64, Classes: 8, Channels: 1, Size: 8192, Noise: 0.5, Flat: true, Seed: 1,
		})
		batches, err := data.NewBatchIterator(train, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		w := Worker{
			Connect: func(rejoin bool, lastVersion int64) (ps.WorkerClient, error) {
				return ps.Connect(route, rejoin, lastVersion)
			},
			Replica:    build(),
			Batches:    batches,
			Iterations: b.N,
			CrashAt:    NoCrash,
		}
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := RunWorker(w); err != nil {
			b.Fatal(err)
		}
	})
}
