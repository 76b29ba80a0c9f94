package ps

import (
	"math/rand"
	"sync"
	"testing"

	"dssp/internal/core"
	"dssp/internal/optimizer"
	"dssp/internal/tensor"
)

func TestPartitionBySizeCoversAndBalances(t *testing.T) {
	cases := []struct {
		sizes []int
		n     int
	}{
		{[]int{10}, 1},
		{[]int{1, 1, 1, 1}, 4},
		{[]int{100, 1, 1, 1}, 2},
		{[]int{1, 1, 1, 100}, 2},
		{[]int{5, 5, 5, 5, 5, 5, 5, 5}, 3},
		{[]int{1000, 500, 250, 125, 60, 30, 15, 8, 4, 2}, 4},
	}
	for _, c := range cases {
		ranges := partitionBySize(c.sizes, c.n)
		if len(ranges) != c.n {
			t.Errorf("sizes %v, n=%d: got %d ranges", c.sizes, c.n, len(ranges))
			continue
		}
		next := 0
		for i, r := range ranges {
			if r.Start != next {
				t.Errorf("sizes %v, n=%d: range %d starts at %d, want %d", c.sizes, c.n, i, r.Start, next)
			}
			if r.End <= r.Start {
				t.Errorf("sizes %v, n=%d: range %d is empty", c.sizes, c.n, i)
			}
			next = r.End
		}
		if next != len(c.sizes) {
			t.Errorf("sizes %v, n=%d: ranges end at %d, want %d", c.sizes, c.n, next, len(c.sizes))
		}
	}
}

func TestStoreShardCountClampedToTensorCount(t *testing.T) {
	initial := []*tensor.Tensor{tensor.New(2), tensor.New(3)}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.1), 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2 (clamped to tensor count)", st.Shards())
	}
	if len(st.shapes) != 2 {
		t.Fatalf("store holds %d tensors, want 2", len(st.shapes))
	}
	if r := st.ranges[0]; r.Start != 0 || r.End == 0 {
		t.Fatalf("shard 0 spans [%d,%d)", r.Start, r.End)
	}
}

// TestShardedStoreMatchesUnsharded applies the same update sequence to a
// single-shard store and a maximally sharded store and requires bit-identical
// parameters: sharding must not change the training math, only its locking.
func TestShardedStoreMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	initial := []*tensor.Tensor{
		tensor.New(7, 5).RandNormal(rng, 0, 1),
		tensor.New(13).RandNormal(rng, 0, 1),
		tensor.New(3, 4, 2).RandNormal(rng, 0, 1),
		tensor.New(1).RandNormal(rng, 0, 1),
		tensor.New(6, 6).RandNormal(rng, 0, 1),
	}
	// Momentum + weight decay exercises per-shard optimizer state.
	single, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.05, 0.9), 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.05, 0.9), len(initial))
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != len(initial) {
		t.Fatalf("sharded store has %d shards, want %d", sharded.Shards(), len(initial))
	}

	for step := 0; step < 50; step++ {
		grads := make([]*tensor.Tensor, len(initial))
		for i, p := range initial {
			grads[i] = tensor.New(p.Shape()...).RandNormal(rng, 0, 0.1)
		}
		v1, err := single.Apply(grads)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := sharded.Apply(grads)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 {
			t.Fatalf("step %d: versions diverge (%d vs %d)", step, v1, v2)
		}
	}

	p1, _ := single.Snapshot()
	p2, _ := sharded.Snapshot()
	if !sameTensors(p1, p2) {
		t.Fatal("sharded and unsharded stores produced different parameters for the same update sequence")
	}
}

// TestStoreConcurrentApplySnapshotHammer drives concurrent writers and
// readers through the store; it exists to be run under -race and to verify
// the aggregate version counts every apply exactly once.
func TestStoreConcurrentApplySnapshotHammer(t *testing.T) {
	initial := []*tensor.Tensor{
		tensor.New(32, 32), tensor.New(32), tensor.New(16, 16), tensor.New(16), tensor.New(8),
	}
	st, err := NewStoreSharded(initial, optimizer.NewSGDMomentum(0.01, 0.9), 4)
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers, applies = 4, 4, 50
	var writerWg, readerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			grads := make([]*tensor.Tensor, len(initial))
			for i, p := range initial {
				grads[i] = tensor.Full(0.01, p.Shape()...)
			}
			for i := 0; i < applies; i++ {
				if _, err := st.Apply(grads); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				params, version := st.Snapshot()
				if len(params) != len(initial) || version < 0 {
					t.Errorf("snapshot returned %d tensors, version %d", len(params), version)
					return
				}
				for s := 0; s < st.Shards(); s++ {
					ts, gen := st.acquireShard(s)
					gen.release()
					if len(ts) == 0 {
						t.Errorf("shard %d snapshot empty", s)
						return
					}
				}
				_ = st.Version()
			}
		}(r)
	}

	writerWg.Wait()
	close(stop)
	readerWg.Wait()

	if got := st.Version(); got != writers*applies {
		t.Fatalf("version = %d, want %d", got, writers*applies)
	}
}

// TestClientPullCarriesEveryShard pulls from a server whose store has several
// shards and verifies the one reply carries exactly the store's parameters,
// in global tensor order.
func TestClientPullCarriesEveryShard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	initial := []*tensor.Tensor{
		tensor.New(9, 3).RandNormal(rng, 0, 1),
		tensor.New(4).RandNormal(rng, 0, 1),
		tensor.New(5, 5).RandNormal(rng, 0, 1),
		tensor.New(2, 2, 2).RandNormal(rng, 0, 1),
	}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(0.1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 3 {
		t.Fatalf("store has %d shards, want 3", st.Shards())
	}
	srv, clients := startTestServer(t, core.MustNewASP(1), st)
	_ = srv

	pulled, version, err := clients[0].Pull()
	if err != nil {
		t.Fatal(err)
	}
	if version != 0 {
		t.Fatalf("pulled version = %d, want 0", version)
	}
	want, _ := st.Snapshot()
	if !sameTensors(pulled, want) {
		t.Fatal("pull did not carry the store's parameters")
	}

	// After an update the pull must reflect it.
	grads := make([]*tensor.Tensor, len(initial))
	for i, p := range initial {
		grads[i] = tensor.Full(1, p.Shape()...)
	}
	if err := clients[0].PushAndWait(grads, 0, 0); err != nil {
		t.Fatal(err)
	}
	pulled, version, err = clients[0].Pull()
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Fatalf("pulled version = %d, want 1", version)
	}
	want, _ = st.Snapshot()
	if !sameTensors(pulled, want) {
		t.Fatal("pull after push did not match the store")
	}
}

// TestConcurrentPullersSeeConsistentShards runs many pulling clients against
// a server whose store is being pushed to, under a multi-shard layout; every
// reassembled pull must carry tensors of the right shapes with every shard
// internally consistent (all elements of a tensor equal, since every push
// applies a uniform gradient).
func TestConcurrentPullersSeeConsistentShards(t *testing.T) {
	initial := []*tensor.Tensor{
		tensor.New(16, 16), tensor.New(16), tensor.New(8, 8), tensor.New(8),
	}
	st, err := NewStoreSharded(initial, optimizer.NewSGD(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 5
	_, clients := startTestServer(t, core.MustNewASP(workers), st)

	grads := make([]*tensor.Tensor, len(initial))
	for i, p := range initial {
		grads[i] = tensor.Full(1, p.Shape()...)
	}

	var wg sync.WaitGroup
	// Worker 0 pushes; the rest pull concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := clients[0].PushAndWait(grads, int64(i), i); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
	}()
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				params, _, err := clients[w].Pull()
				if err != nil {
					t.Errorf("worker %d pull %d: %v", w, i, err)
					return
				}
				for j, p := range params {
					if !p.SameShape(initial[j]) {
						t.Errorf("worker %d pull %d: tensor %d shape %v, want %v",
							w, i, j, p.Shape(), initial[j].Shape())
						return
					}
					// SGD with lr=1 and unit gradients keeps every element of
					// a tensor identical; a torn tensor would break this.
					d := p.Data()
					for _, v := range d {
						if v != d[0] {
							t.Errorf("worker %d pull %d: tensor %d torn (%v vs %v)", w, i, j, v, d[0])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStoreOfNoTensorsPublishesEachTicketAtOnce: the zero Store, a
// coordinator's, has no shard and so no applier to wait for. Every enqueue,
// of the empty gradient, is visible as soon as it is reserved, and
// WaitApplied on its ticket returns at once.
func TestStoreOfNoTensorsPublishesEachTicketAtOnce(t *testing.T) {
	st := new(Store)
	defer st.Close()
	gone := make(chan struct{})
	close(gone)
	for i, weight := range []int64{1, 3, 1} {
		ticket, err := st.EnqueueApplyWeighted(nil, weight)
		if err != nil {
			t.Fatal(err)
		}
		if v, r := st.Version(), st.Reserved(); v != r || ticket != r {
			t.Fatalf("enqueue %d: ticket %d, version %d, reserved %d; want all equal", i, ticket, v, r)
		}
		// A cancel that has already fired: only a ticket already applied
		// returns true.
		if !st.WaitApplied(ticket, gone) {
			t.Fatalf("enqueue %d: WaitApplied(%d) waited", i, ticket)
		}
	}
	if _, err := st.EnqueueApply([]*tensor.Tensor{tensor.New(1)}); err == nil {
		t.Fatal("a store of no tensors accepted a gradient of one")
	}
}
