package dssp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dssp/internal/data"
)

// TestWorkerBuildsOnlyItsShard: a worker generates its own partition of the
// train split alone, and no test split, yet draws the same batches as when
// both splits were generated and the shard was a copy. The hashes are those
// batches — three workers, two epochs over 23 or 24 examples each, a short
// tail batch per epoch — as the copying build drew them.
func TestWorkerBuildsOnlyItsShard(t *testing.T) {
	for _, tc := range []struct {
		model Model
		want  uint64
	}{
		{ModelSmallCNN, 0x1570f57efd7010d1},
		{ModelSmallMLP, 0x683d5984edb168ed},
	} {
		h := fnv.New64a()
		var word [4]byte
		for id := 0; id < 3; id++ {
			run, err := job{Model: tc.model, Dataset: DatasetConfig{Examples: 70, Classes: 3, Seed: 5},
				Workers: 3, BatchSize: 8, Epochs: 2, Seed: 9, Worker: id}.build(workerShard)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := data.Partition(70, id, 3)
			if err != nil {
				t.Fatal(err)
			}
			if run.Train.Len() != len(idx) || run.Test != nil {
				t.Fatalf("%s: worker %d's build generated %d train examples, a test split: %v", tc.model, id, run.Train.Len(), run.Test != nil)
			}
			w, err := run.Worker(id)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < w.Iterations; i++ {
				x, labels := w.Batches.Next()
				for _, v := range x.Data() {
					binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
					h.Write(word[:])
				}
				for _, l := range labels {
					binary.LittleEndian.PutUint32(word[:], uint32(l))
					h.Write(word[:])
				}
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: worker batches hash to %#x, recorded %#x", tc.model, got, tc.want)
		}
	}

	// A shard of 300 32×32 RGB examples is 3.6 MB of images; building the
	// worker that trains on it allocates its batches, its replica and its
	// iterator, not a copy of the images.
	run, err := job{Model: ModelSmallCNN, Dataset: DatasetConfig{Examples: 600, ImageSize: 32, Seed: 5},
		Workers: 2, BatchSize: 8, Seed: 9, Worker: 1}.build(workerShard)
	if err != nil {
		t.Fatal(err)
	}
	const shardBytes = 300 * 3 * 32 * 32 * 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := run.Worker(1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > shardBytes/4 {
		t.Errorf("building a worker allocated %d bytes for a %d-byte shard: the shard copies its examples", alloc, shardBytes)
	}
}

// TestWorkerShardMatchesInProcessPartition: the shard a worker generates on
// its own gives it the batches and the iteration count the in-process run's
// partition of the whole train split gives the same worker — on an uneven
// split (70 examples over 3 workers: 24, 23 and 23), on one whose larger
// shard would take an extra batch per epoch (17 over 2 at batch 4: 9 and 8
// examples, 2 batches each), and on one that leaves worker 2 of 3 no
// examples, so that it trains on the whole split.
func TestWorkerShardMatchesInProcessPartition(t *testing.T) {
	for _, tc := range []struct {
		examples, workers, batch int
	}{
		{70, 3, 8},
		{17, 2, 4},
		{2, 3, 1},
	} {
		j := job{Model: ModelSmallMLP, Dataset: DatasetConfig{Examples: tc.examples, Classes: 3, Seed: 5},
			Workers: tc.workers, BatchSize: tc.batch, Epochs: 2, Seed: 9}
		whole, err := j.build(bothSplits)
		if err != nil {
			t.Fatal(err)
		}
		for id := range tc.workers {
			j.Worker = id
			run, err := j.build(workerShard)
			if err != nil {
				t.Fatal(err)
			}
			got, err := run.Worker(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := whole.Worker(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != want.Iterations {
				t.Fatalf("%d/%d: worker %d runs %d iterations on its own shard, %d in process", tc.examples, tc.workers, id, got.Iterations, want.Iterations)
			}
			for i := range got.Iterations {
				gx, gl := got.Batches.Next()
				wx, wl := want.Batches.Next()
				if !slices.EqualFunc(gx.Data(), wx.Data(), func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) ||
					!slices.Equal(gl, wl) {
					t.Fatalf("%d/%d: worker %d's batch %d differs from the in-process partition's", tc.examples, tc.workers, id, i)
				}
			}
		}
	}
}

// TestWorkerShardBuildAllocatesItsShard: worker 1 of 2 on 256 wide-MLP
// examples generates its 128 examples of 8192 features, 4 MB, and holds
// nothing else: the build allocates at most 1.15 times that, where
// generating the whole split took twice.
func TestWorkerShardBuildAllocatesItsShard(t *testing.T) {
	j := job{Model: ModelSmallMLP, Dataset: DatasetConfig{Examples: 256, ImageSize: 8192, Seed: 5},
		Workers: 2, BatchSize: 8, Seed: 9, Worker: 1}
	const shardBytes = 128 * 8192 * 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run, err := j.build(workerShard)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if run.Train.Len() != 128 {
		t.Fatalf("worker 1's shard holds %d examples, want 128", run.Train.Len())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > shardBytes*115/100 {
		t.Errorf("building worker 1 allocated %d bytes for its %d-byte shard", alloc, shardBytes)
	}
}

// TestEvaluateBuildsOnlyTheTestSplit: Evaluate generates the test split
// alone, and its accuracy on a fixed store is bit for bit the accuracy on
// the test split cut from one generation of both splits. On the wide MLP the
// test split is 64 examples of 8192 features, 2 MB, behind 8 MB of train
// examples; one Evaluate allocates the split, the batch it is copied into,
// and a replica, its parameters and their snapshot — not the train split.
func TestEvaluateBuildsOnlyTheTestSplit(t *testing.T) {
	dataset := DatasetConfig{Examples: 256, TestExamples: 64, ImageSize: 8192, Noise: 8, Seed: 5}
	server, err := Serve(ServerConfig{Addr: "127.0.0.1:0", Workers: 1, Model: ModelSmallMLP, Dataset: dataset, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Stop()
	// Train the store an epoch, so that the accuracy is not chance.
	if _, err := RunWorker(WorkerConfig{ServerAddr: server.Addr(), Workers: 1, Model: ModelSmallMLP,
		Dataset: dataset, BatchSize: 16, Epochs: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	<-server.Done()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	acc, err := server.Evaluate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}

	both := data.MustSynthetic(data.SyntheticConfig{Examples: 320, Classes: 4, Channels: 1, Size: 8192,
		Noise: 8, Flat: true, Seed: 5})
	testIdx := make([]int, 64)
	for i := range testIdx {
		testIdx[i] = 256 + i
	}
	run, err := server.job.build(noSplits)
	if err != nil {
		t.Fatal(err)
	}
	replica := run.Model.Build(rand.New(rand.NewSource(run.Seed)))
	stored, _ := server.inner.Store().Snapshot()
	if err := replica.SetParams(stored); err != nil {
		t.Fatal(err)
	}
	x, labels := both.Subset(testIdx).All()
	if want := replica.Accuracy(x, labels); math.Float64bits(acc) != math.Float64bits(want) {
		t.Errorf("Evaluate measured accuracy %v, the test split cut from both splits %v", acc, want)
	}

	const splitBytes = 64 * 8192 * 4
	paramBytes := 0
	for _, p := range stored {
		paramBytes += 4 * len(p.Data())
	}
	// The split and its batch, the replica's parameters and gradients, the
	// store's snapshot, and a parameter set and a quarter split to spare.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*splitBytes+4*uint64(paramBytes)+splitBytes/4 {
		t.Errorf("one Evaluate allocated %d bytes for a %d-byte test split and %d bytes of parameters", alloc, splitBytes, paramBytes)
	}
}
