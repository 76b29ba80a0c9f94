package ps

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dssp/internal/compress"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
)

// TestSteadyStateApplyAllocatesNoClones pins the headline property of the
// refcounted generations: with no reader holding buffers, a store settles
// into double-buffering and copy-on-write publication stops allocating —
// every publication past warm-up recycles a retired generation.
func TestSteadyStateApplyAllocatesNoClones(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(16, 8), tensor.New(32), tensor.New(5)}
	st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.05, 0.9), 2)
	if err != nil {
		t.Fatal(err)
	}
	meterStore(st)
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{{16, 8}, {32}, {5}}

	const warmup, steady = 4, 40
	for i := 0; i < warmup; i++ {
		if _, err := st.Apply(randomGrads(rng, shapes...)); err != nil {
			t.Fatal(err)
		}
	}
	_, allocAfterWarmup := cloneFates(st)

	var ticket int64

	for i := 0; i < steady; i++ {
		if ticket, err = st.Apply(randomGrads(rng, shapes...)); err != nil {
			t.Fatal(err)
		}
	}
	if !st.WaitApplied(ticket, nil) {
		t.Fatal("WaitApplied failed")
	}
	reused, allocated := cloneFates(st)
	if allocated != allocAfterWarmup {
		t.Fatalf("steady-state applies allocated %d new generations (had %d after warmup); want 0 new",
			allocated-allocAfterWarmup, allocAfterWarmup)
	}
	if reused == 0 {
		t.Fatal("no generation was ever reused")
	}
}

// TestHeldGenerationIsNeverRecycled: a generation a reader acquired and has
// not released keeps its exact contents, no matter how many updates the store
// applies meanwhile — the applier must not reclaim its buffers as write
// destinations — and once released it costs the applier nothing more:
// publication goes back to recycling.
func TestHeldGenerationIsNeverRecycled(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(8, 4), tensor.New(9)}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.5), 2)
	if err != nil {
		t.Fatal(err)
	}
	meterStore(st)
	rng := rand.New(rand.NewSource(3))
	shapes := [][]int{{8, 4}, {9}}
	if _, err := st.Apply(randomGrads(rng, shapes...)); err != nil {
		t.Fatal(err)
	}

	held, gen := st.acquireShard(0)
	frozen := make([][]float32, len(held))
	for i, p := range held {
		frozen[i] = append([]float32(nil), p.Data()...)
	}

	apply := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := st.Apply(randomGrads(rng, shapes...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(10)
	for i, p := range held {
		d := p.Data()
		for j := range d {
			if d[j] != frozen[i][j] {
				t.Fatalf("held generation mutated: tensor %d element %d changed from %v to %v",
					i, j, frozen[i][j], d[j])
			}
		}
	}
	gen.release()
	apply(4)
	_, before := cloneFates(st)
	apply(10)
	if _, after := cloneFates(st); after != before {
		t.Fatalf("publication allocated %d generations after the held one was released", after-before)
	}
}

// TestRefcountedReuseHammer races every reader against the applier's buffer
// recycling: acquires (the pull path), snapshots, packed-cache fills, and
// readers that sit on a generation across a reschedule, all while applies
// publish and retire generations as fast as they can. Run with -race, this is
// the proof
// that reuse never hands a reader's buffer to the optimizer as a write
// destination.
func TestRefcountedReuseHammer(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(64, 8), tensor.New(128), tensor.New(16, 3)}
	st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.01, 0.9), 3)
	if err != nil {
		t.Fatal(err)
	}
	meterStore(st)
	shapes := [][]int{{64, 8}, {128}, {16, 3}}
	const (
		writers = 2
		applies = 150
		readers = 6
	)
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup

	// Writers: push gradients through the full apply pipeline.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < applies; i++ {
				ticket, err := st.Apply(randomGrads(rng, shapes...))
				if err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				if i%16 == 0 {
					st.WaitApplied(ticket, stop)
				}
			}
		}(int64(w + 1))
	}

	// Readers: every access pattern the store exports, mixed per iteration.
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(kind int) {
			defer readerWG.Done()
			sink := float32(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					_ = sink
					return
				default:
				}
				shard := i % st.Shards()
				switch kind % 4 {
				case 0: // acquire, read everything, release
					params, gen := st.acquireShard(shard)
					for _, p := range params {
						for _, v := range p.Data() {
							sink += v
						}
					}
					gen.release()
				case 1: // deep-copy snapshot
					params, _ := st.Snapshot()
					for _, p := range params {
						sink += p.Data()[0]
					}
				case 2: // packed-cache fill (a borrow inside the store)
					packed, pin := st.acquirePacked(shard, func(_ []compress.Packed, ps []*tensor.Tensor) []compress.Packed {
						out := make([]compress.Packed, len(ps))
						for j, p := range ps {
							d := p.Data()
							for _, v := range d {
								sink += v
							}
							out[j] = compress.Packed{Payload: []byte{byte(len(d))}}
						}
						return out
					})
					pin.release()
					if len(packed) == 0 {
						t.Error("packed fill returned nothing")
						return
					}
				case 3: // slow reader: buffers must stay immutable while held
					params, gen := st.acquireShard(shard)
					last := params[0].Data()[len(params[0].Data())-1]
					runtime.Gosched()
					if now := params[0].Data()[len(params[0].Data())-1]; now != last {
						t.Errorf("a held generation changed from %v to %v", last, now)
					}
					gen.release()
					sink += last
				}
			}
		}(r)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	st.Close()
	reused, allocated := cloneFates(st)
	t.Logf("hammer: %d generations reused, %d allocated", reused, allocated)
}

// BenchmarkStoreApplySteadyState drives the full apply pipeline —
// publication, generation recycling, fused optimizer step — on a bare store.
// The alloc figure is the one the refcounted clones are about: steady state
// should be dominated by the WaitApplied handshake, not parameter copies
// (TestSteadyStateApplyAllocatesNoClones pins that no generation is
// allocated).
func BenchmarkStoreApplySteadyState(b *testing.B) {
	initial := []*tensor.Tensor{tensor.New(256, 128), tensor.New(256)}
	st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.05, 0.9), 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	grads := randomGrads(rng, []int{256, 128}, []int{256})
	if _, err := st.Apply(grads); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ticket int64
	for i := 0; i < b.N; i++ {
		if ticket, err = st.Apply(grads); err != nil {
			b.Fatal(err)
		}
	}
	if !st.WaitApplied(ticket, nil) {
		b.Fatal("WaitApplied failed")
	}
}
