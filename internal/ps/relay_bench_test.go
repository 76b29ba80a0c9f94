package ps

import (
	"fmt"
	"sync"
	"testing"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/transport"
)

// BenchmarkAggTreeIngress drives 16 workers' push traffic at one root, flat
// (fanout=1: every worker dials the root) versus through four fanout-4
// relays, over the in-process channel transport. Besides ns/op it reports
// the root's metered push ingress per logical push — the rootframes/push
// ratio between the two sub-benchmarks is the tier's batching factor and is
// pinned by the bench gate alongside the timing.
func BenchmarkAggTreeIngress(b *testing.B) {
	const workers = 16
	for _, fanout := range []int{1, 4} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			benchAggTree(b, workers, fanout)
		})
	}
}

func benchAggTree(b *testing.B, workers, fanout int) {
	st, err := NewStoreSharded(benchModel(), optimizer.NewSGD(0.01), 4)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Workers: workers,
		Policy:  core.MustNewASP(workers),
		Store:   st,
	})
	if err != nil {
		b.Fatal(err)
	}
	root := transport.NewChanListener()
	root.SetMeter(transport.NewMetrics(srv.Registry()))
	go func() { _ = srv.Serve(root) }()
	var relays []*Relay
	var listeners []*transport.ChanListener
	defer func() {
		for _, r := range relays {
			r.Stop()
		}
		srv.Stop()
		for _, l := range listeners {
			l.Close()
		}
		root.Close()
	}()
	if fanout >= 2 {
		for i := 0; i < (workers+fanout-1)/fanout; i++ {
			l := transport.NewChanListener()
			listeners = append(listeners, l)
			relay, err := NewRelay(RelayConfig{Fanout: fanout, Advertise: l.Addr()}, parentDial(root.Dial), nil)
			if err != nil {
				b.Fatal(err)
			}
			relays = append(relays, relay)
			go func(r *Relay, l *transport.ChanListener) { _ = r.Serve(l) }(relay, l)
		}
	}

	clients := make([]*Client, workers)
	for w := range clients {
		dial := root.Dial
		if fanout >= 2 {
			dial = listeners[w/fanout].Dial
		}
		conn, err := dial()
		if err != nil {
			b.Fatal(err)
		}
		clients[w] = NewClient(conn, w)
		if err := clients[w].Register(); err != nil {
			b.Fatal(err)
		}
	}

	per := b.N / workers
	extra := b.N % workers
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		iters := per
		if w < extra {
			iters++
		}
		wg.Add(1)
		go func(w, iters int) {
			defer wg.Done()
			g := benchGrads()
			for i := 0; i < iters; i++ {
				if err := clients[w].PushAndWait(g, 0, i); err != nil {
					b.Error(err)
					return
				}
			}
			// Done retires the worker so tail partials never wait on it.
			if err := clients[w].Done(); err != nil {
				b.Error(err)
			}
		}(w, iters)
	}
	wg.Wait()
	b.StopTimer()

	snap := srv.Registry().Snapshot()
	pushes := float64(b.N)
	if pushes > 0 {
		b.ReportMetric(snap[`dssp_transport_frames_total{dir="recv",type="Push"}`]/pushes, "rootframes/push")
		b.ReportMetric(snap[`dssp_transport_bytes_total{dir="recv",type="Push"}`]/pushes, "rootB/push")
	}
	for _, c := range clients {
		_ = c.Close()
	}
}
