package ps

import (
	"math/rand"
	"sync"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
	"dssp/internal/transport"
)

// TestCodecBufferReuseSurvivesPoisoning drives the four recycled buffers of
// the fp16 push/pull path — the compressor's payloads, the server's decode
// scratch, the store's packed-cache generations and the client's in-place
// pull decode — from concurrent workers over TCP, the same-host lane and the
// in-process channel transport. Every push carries a different value and
// every buffer is overwritten by the next one as soon as the protocol allows,
// and the receive buffers the packed frames arrive in are poisoned with NaN
// the moment their messages release them (right after the decode, on both
// ends), so a buffer reused or released while a reader still held it shows up
// as a wrong final sum, a torn (non-uniform) or NaN pulled shard, or, under
// -race, the racing accesses themselves.
func TestCodecBufferReuseSurvivesPoisoning(t *testing.T) {
	cfg := compress.Config{Codec: compress.FP16, Pull: true}
	released := poisonReleasedBodies(t)
	for _, tc := range []struct {
		name string
		tcp  bool
		// lane lets the loopback dials upgrade to the same-host lane; without
		// it they stay on TCP, the cross-host carrier.
		lane bool
	}{{"tcp", true, false}, {"lane", true, true}, {"channel", false, false}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(transport.SetLaneEnabled(tc.lane))
			before := released.Load()
			// Packed frames big enough to be leased (over 4 KB a shard).
			initial := []*tensor.Tensor{tensor.New(96, 64), tensor.New(33), tensor.New(40, 30), tensor.New(2048)}
			st, err := NewStoreSharded(initial, optimizer.NewSGD(1.0), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			const workers, rounds = 4, 50
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

			var dial func() (transport.Conn, error)
			if tc.tcp {
				l, err := transport.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				go func() { _ = srv.Serve(l) }()
				dial = func() (transport.Conn, error) { return transport.Dial(l.Addr()) }
			} else {
				l := transport.NewChanListener()
				defer l.Close()
				go func() { _ = srv.Serve(l) }()
				dial = l.Dial
			}

			// Values are small integers: exact in fp16 (no residual), and
			// their float32 sums are exact, so the final weights are known to
			// the bit.
			value := func(w, r int) float32 { return float32(1 + (w*rounds+r)%9) }
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := dial()
					if err != nil {
						t.Error(err)
						return
					}
					c, err := NewClientCompressed(conn, w, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					defer c.Close()
					if err := c.Register(); err != nil {
						t.Error(err)
						return
					}
					grads := make([]*tensor.Tensor, len(initial))
					for i, p := range initial {
						grads[i] = tensor.New(p.Shape()...)
					}
					last := make([]float32, len(initial))
					for r := 0; r < rounds; r++ {
						params, version, err := c.Pull()
						if err != nil {
							t.Error(err)
							return
						}
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
						for _, g := range grads {
							g.Fill(value(w, r))
						}
						if err := c.PushAndWait(grads, version, r); err != nil {
							t.Error(err)
							return
						}
						// The push is decoded; the caller's buffers are free.
						for _, g := range grads {
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
			if !st.WaitApplied(workers*rounds, nil) {
				t.Fatal("store closed before the pushes were applied")
			}

			var want float32
			for w := 0; w < workers; w++ {
				for r := 0; r < rounds; r++ {
					want -= value(w, r)
				}
			}
			params, version := st.Snapshot()
			if version != workers*rounds {
				t.Fatalf("final version %d, want %d", version, workers*rounds)
			}
			for i, p := range params {
				for j, v := range p.Data() {
					if v != want {
						t.Fatalf("param %d[%d] = %v, want %v — a reused codec buffer reached an optimizer step", i, j, v, want)
					}
				}
			}
			// Sessions pin packed generations only until the send returns, so
			// fills must have recycled retired buffers.
			for i, sh := range st.shards {
				sh.packedMu.Lock()
				pinned := sh.packed.refs.Load()
				sh.packedMu.Unlock()
				if pinned != 0 {
					t.Errorf("shard %d: packed cache left pinned (refs %d) after every reply was sent", i, pinned)
				}
			}
			if n := released.Load() - before; n < 2*rounds {
				t.Errorf("only %d receive buffers were released over %d rounds of pushes and pulls: leases are not ending", n, rounds)
			}
		})
	}
}

// TestAcquirePackedRecyclesOnlyReleasedBuffers pins the packed-cache
// ownership rule directly: a fill may rewrite a retired generation's payload
// buffers only once its pin is released.
func TestAcquirePackedRecyclesOnlyReleasedBuffers(t *testing.T) {
	st, err := NewStoreSharded([]*tensor.Tensor{tensor.New(64)}, optimizer.NewSGD(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := compress.Config{Codec: compress.FP16}
	into := func(dst []compress.Packed, ps []*tensor.Tensor) []compress.Packed {
		return compress.PackInto(dst, ps, cfg)
	}
	step := func() {
		t.Helper()
		if _, err := st.Apply([]*tensor.Tensor{tensor.Full(1, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := func(ps []compress.Packed) *byte { return &ps[0].Payload[0] }

	held, pin := st.acquirePacked(0, into)
	heldBuf, heldBytes := buf(held), string(held[0].Payload)
	step()
	second, pin2 := st.acquirePacked(0, into)
	if buf(second) == heldBuf {
		t.Fatal("a fill rewrote a packed generation that was still pinned")
	}
	pin2.release()
	step()
	third, pin3 := st.acquirePacked(0, into)
	if buf(third) == heldBuf || string(held[0].Payload) != heldBytes {
		t.Fatal("a fill rewrote a packed generation that was still pinned")
	}
	pin3.release()
	pin.release()
	step()
	fourth, pin4 := st.acquirePacked(0, into)
	if b := buf(fourth); b != heldBuf && b != buf(second) {
		t.Fatal("a fill allocated although released generations were retired")
	}
	pin4.release()
}

// TestClientPullDecodeAllocatesNothing pins the worker end of a compressed
// pull: a packed reply decodes in place into the tensors the previous reply
// produced, for replica and worker sessions alike.
func TestClientPullDecodeAllocatesNothing(t *testing.T) {
	cfg := compress.Config{Codec: compress.FP16, Pull: true}
	rng := rand.New(rand.NewSource(1))
	params := []*tensor.Tensor{tensor.New(64, 32).RandNormal(rng, 0, 0.1), tensor.New(64).RandNormal(rng, 0, 0.1)}
	msg := transport.Message{Type: transport.MsgWeights, Codec: cfg.Codec, Packed: compress.Pack(params, cfg)}
	for _, replica := range []bool{false, true} {
		conn, peer := transport.Pipe()
		c, err := NewClientCompressed(conn, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.replica = replica
		first, err := c.decodeWeights(msg)
		if err != nil {
			t.Fatal(err)
		}
		c.reply = first
		allocs := testing.AllocsPerRun(10, func() {
			again, err := c.decodeWeights(msg)
			if err != nil || again[0] != first[0] {
				t.Fatalf("second decode did not reuse the first one's tensors (err %v)", err)
			}
		})
		if allocs != 0 {
			t.Errorf("replica=%v: a steady-state packed reply decode allocates %v times", replica, allocs)
		}
		if !first[0].ApproxEqual(params[0], 1e-3) {
			t.Errorf("replica=%v: in-place decode lost the weights", replica)
		}
		conn.Close()
		peer.Close()
	}
}
