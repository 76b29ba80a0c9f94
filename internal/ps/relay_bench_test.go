package ps

import (
	"fmt"
	"sync"
	"testing"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
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
		clients[w] = newClient(conn, w)
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

// BenchmarkRelayFoldLane1MB prices one window of tree-comm's relay on the
// same-host lane: two children push 1 MB of dense gradients (the wide MLP's
// layout) through a fanout-2 relay, and one op is one fold, flush and release
// — the first push held on its receive lease, the second summed with it into
// the trunk's push slot, the partial sent to the root from the slot and
// applied, and both children's OKs back through the relay. The children
// push from their own lanes' push slots, as the worker loop does.
func BenchmarkRelayFoldLane1MB(b *testing.B) {
	defer transport.SetLaneEnabled(true)()
	model := []*tensor.Tensor{tensor.New(8192, 32), tensor.New(32), tensor.New(32, 8), tensor.New(8)}
	st, err := NewStoreSharded(model, optimizer.NewSGD(0.001), 2)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Workers: 2, Policy: core.MustNewASP(2), Store: st})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	root, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer root.Close()
	go func() { _ = srv.Serve(root) }()
	relay, err := NewRelay(RelayConfig{Parent: root.Addr(), Fanout: 2, Advertise: "relay"}, transport.Dial, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer relay.Stop()
	edge, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer edge.Close()
	go func() { _ = relay.Serve(edge) }()

	grads := make([]*tensor.Tensor, len(model))
	for i, p := range model {
		grads[i] = tensor.Full(0.25, p.Shape()...)
	}
	clients := make([]*Client, 2)
	for w := range clients {
		conn, err := transport.Dial(edge.Addr())
		if err != nil {
			b.Fatal(err)
		}
		clients[w] = newClient(conn, w)
		defer clients[w].Close()
		if err := clients[w].Register(); err != nil {
			b.Fatal(err)
		}
	}
	// Each child pushes in lock-step, so every window closes full: a child's
	// next push waits on the OK its sibling's push completes.
	run := func(from, to int) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				for it := from; it < to; it++ {
					g := grads
					if slot := c.PushSlot(grads); slot != nil {
						// The slot keeps what was written to it: filled once.
						if slot[0].Data()[0] != grads[0].Data()[0] {
							for i, s := range slot {
								copy(s.Data(), grads[i].Data())
							}
						}
						g = slot
					}
					// Nonzero versions and iterations: the layouts the push
					// slots are placed for.
					if err := c.PushAndWait(g, int64(it+1), it+1); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	run(0, 4)
	var payload int64
	for _, g := range grads {
		payload += int64(4 * g.Size())
	}
	b.SetBytes(2 * payload)
	b.ReportAllocs()
	b.ResetTimer()
	run(4, 4+b.N)
}
