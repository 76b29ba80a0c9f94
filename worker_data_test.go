package dssp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// TestWorkerBuildsOnlyItsShard: a worker generates the train split alone and
// its shard lists the generated examples instead of copying them, yet draws
// the same batches as when both splits were generated and the shard was a
// copy. The hashes are those batches — three workers, two epochs over 23 or
// 24 examples each, a short tail batch per epoch — as the copying build drew
// them.
func TestWorkerBuildsOnlyItsShard(t *testing.T) {
	for _, tc := range []struct {
		model Model
		want  uint64
	}{
		{ModelSmallCNN, 0x1570f57efd7010d1},
		{ModelSmallMLP, 0x683d5984edb168ed},
	} {
		run, err := job{Model: tc.model, Dataset: DatasetConfig{Examples: 70, Classes: 3, Seed: 5},
			Workers: 3, BatchSize: 8, Epochs: 2, Seed: 9}.build(trainSplit)
		if err != nil {
			t.Fatal(err)
		}
		if run.Train.Len() != 70 || run.Test != nil {
			t.Fatalf("%s: a worker's build generated %d train examples, a test split: %v", tc.model, run.Train.Len(), run.Test != nil)
		}
		h := fnv.New64a()
		var word [4]byte
		for id := 0; id < 3; id++ {
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
	// worker that trains on it allocates its batches, its replica and the
	// shard's index, not a copy of the images.
	run, err := job{Model: ModelSmallCNN, Dataset: DatasetConfig{Examples: 600, ImageSize: 32, Seed: 5},
		Workers: 2, BatchSize: 8, Seed: 9}.build(trainSplit)
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
