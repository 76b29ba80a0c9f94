package data

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"dssp/internal/tensor"
)

func TestDatasetAddValidation(t *testing.T) {
	d := NewDataset(3, 4, 2, false)
	img := make([]float32, 3*4*4)
	if err := d.Add(img, 0); err != nil {
		t.Fatalf("valid Add failed: %v", err)
	}
	if err := d.Add(img[:5], 0); err == nil {
		t.Error("expected error for wrong sample length")
	}
	if err := d.Add(img, 5); err == nil {
		t.Error("expected error for out-of-range label")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestDatasetBatchShapes(t *testing.T) {
	img := MustSynthetic(SyntheticConfig{Examples: 10, Classes: 2, Channels: 3, Size: 8, Noise: 0.5, Seed: 1})
	x, labels := img.Batch([]int{0, 3, 5})
	if x.Dims() != 4 || x.Dim(0) != 3 || x.Dim(1) != 3 || x.Dim(2) != 8 {
		t.Fatalf("image batch shape %v", x.Shape())
	}
	if len(labels) != 3 {
		t.Fatalf("labels %v", labels)
	}

	flat := MustSynthetic(SyntheticConfig{Examples: 10, Classes: 2, Channels: 1, Size: 16, Noise: 0.5, Flat: true, Seed: 1})
	xf, _ := flat.Batch([]int{1, 2})
	if xf.Dims() != 2 || xf.Dim(1) != 16 {
		t.Fatalf("flat batch shape %v", xf.Shape())
	}
}

func TestSyntheticIsBalancedAndDeterministic(t *testing.T) {
	cfg := SyntheticConfig{Examples: 40, Classes: 4, Channels: 3, Size: 6, Noise: 0.3, Seed: 9}
	a := MustSynthetic(cfg)
	b := MustSynthetic(cfg)
	counts := make([]int, a.Classes)
	for _, l := range a.labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Errorf("class %d has %d examples, want 10", c, n)
		}
	}
	xa, _ := a.All()
	xb, _ := b.All()
	if !xa.ApproxEqual(xb, 0) {
		t.Error("same seed produced different synthetic datasets")
	}
	c := MustSynthetic(SyntheticConfig{Examples: 40, Classes: 4, Channels: 3, Size: 6, Noise: 0.3, Seed: 10})
	xc, _ := c.All()
	if xa.ApproxEqual(xc, 0) {
		t.Error("different seeds produced identical datasets")
	}
}

// TestSyntheticFromKeepsTheFullSetsExamples: a generation that keeps
// examples [From, Examples) holds, at index i, bit for bit example From+i of
// one generation of the whole set, label included — at the start, the
// middle and the end of the set, for an empty range and for the whole set.
func TestSyntheticFromKeepsTheFullSetsExamples(t *testing.T) {
	full := SyntheticConfig{Examples: 23, Classes: 3, Channels: 2, Size: 3, Noise: 0.7, Seed: 12}
	whole := MustSynthetic(full)
	for _, r := range [][2]int{{0, 8}, {8, 16}, {16, 23}, {11, 11}, {0, 23}} {
		cfg := full
		cfg.From, cfg.Examples = r[0], r[1]
		part, err := Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if part.Len() != r[1]-r[0] {
			t.Fatalf("[%d,%d): kept %d examples", r[0], r[1], part.Len())
		}
		for i := 0; i < part.Len(); i++ {
			got, want := part.images[i], whole.images[r[0]+i]
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("[%d,%d): example %d differs from the whole set's example %d", r[0], r[1], i, r[0]+i)
				}
			}
			if part.Label(i) != whole.Label(r[0]+i) {
				t.Fatalf("[%d,%d): example %d has label %d, the whole set's %d", r[0], r[1], i, part.Label(i), whole.Label(r[0]+i))
			}
		}
	}
}

func TestSyntheticRejectsBadConfig(t *testing.T) {
	bad := []SyntheticConfig{
		{Examples: 0, Classes: 2, Channels: 1, Size: 4},
		{Examples: 4, Classes: 0, Channels: 1, Size: 4},
		{Examples: 4, Classes: 2, Channels: 1, Size: 4, From: 5},
		{Examples: 4, Classes: 2, Channels: 1, Size: 4, From: -1},
		{Examples: 4, Classes: 2, Channels: 0, Size: 4},
	}
	for _, cfg := range bad {
		if _, err := Synthetic(cfg); err == nil {
			t.Errorf("config %+v: expected error", cfg)
		}
	}
}

func TestPartitionCoversAllIndicesExactlyOnce(t *testing.T) {
	property := func(totalRaw, workersRaw uint16) bool {
		total := int(totalRaw % 500)
		workers := int(workersRaw%16) + 1
		seen := make(map[int]int)
		for w := 0; w < workers; w++ {
			idx, err := Partition(total, w, workers)
			if err != nil {
				return false
			}
			for _, i := range idx {
				seen[i]++
			}
		}
		if len(seen) != total {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSizesAreBalanced(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		sizes := make([]int, workers)
		for w := 0; w < workers; w++ {
			idx, err := Partition(103, w, workers)
			if err != nil {
				t.Fatal(err)
			}
			sizes[w] = len(idx)
		}
		minSz, maxSz := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < minSz {
				minSz = s
			}
			if s > maxSz {
				maxSz = s
			}
		}
		if maxSz-minSz > 1 {
			t.Errorf("workers=%d: partition sizes %v differ by more than 1", workers, sizes)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	if _, err := Partition(10, 0, 0); err == nil {
		t.Error("expected error for zero workers")
	}
	if _, err := Partition(10, 3, 2); err == nil {
		t.Error("expected error for out-of-range worker")
	}
	if _, err := Partition(-1, 0, 2); err == nil {
		t.Error("expected error for negative total")
	}
}

func TestPartitionDatasetKeepsGeometry(t *testing.T) {
	d := MustSynthetic(SyntheticConfig{Examples: 20, Classes: 2, Channels: 3, Size: 4, Noise: 0.1, Seed: 3})
	shard, err := PartitionDataset(d, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if shard.Len() != 5 {
		t.Fatalf("shard size = %d, want 5", shard.Len())
	}
	if shard.Channels != 3 || shard.Size != 4 || shard.Classes != 2 {
		t.Fatal("shard geometry differs from parent")
	}
}

func TestBatchIteratorCoversEpochAndWrapsAround(t *testing.T) {
	d := MustSynthetic(SyntheticConfig{Examples: 10, Classes: 2, Channels: 1, Size: 4, Noise: 0.1, Seed: 5})
	it, err := NewBatchIterator(d, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n := (it.dataset.Len() + it.batchSize - 1) / it.batchSize; n != 3 {
		t.Fatalf("batches per epoch = %d, want 3", n)
	}
	sizes := []int{}
	for i := 0; i < 3; i++ {
		x, labels := it.Next()
		if x.Dim(0) != len(labels) {
			t.Fatal("batch size and label count differ")
		}
		sizes = append(sizes, len(labels))
	}
	if sizes[0]+sizes[1]+sizes[2] != 10 {
		t.Fatalf("epoch covered %v examples, want 10", sizes)
	}
	if it.epoch != 0 {
		t.Fatalf("epoch should still be 0, got %d", it.epoch)
	}
	it.Next()
	if it.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", it.epoch)
	}
}

func TestBatchIteratorValidation(t *testing.T) {
	d := MustSynthetic(SyntheticConfig{Examples: 4, Classes: 2, Channels: 1, Size: 4, Noise: 0.1, Seed: 5})
	if _, err := NewBatchIterator(d, 0, 1); err == nil {
		t.Error("expected error for zero batch size")
	}
	empty := NewDataset(1, 4, 2, false)
	if _, err := NewBatchIterator(empty, 2, 1); err == nil {
		t.Error("expected error for empty dataset")
	}
}

// TestBatchIteratorReusesItsBatches: every batch of the configured size is
// the same tensor and label slice, refilled, and so is every short last batch
// of an epoch (a pair of its own) — each holding exactly what Dataset.Batch
// builds for the same examples — and a warm Next allocates nothing.
func TestBatchIteratorReusesItsBatches(t *testing.T) {
	d := MustSynthetic(SyntheticConfig{Examples: 10, Classes: 3, Channels: 2, Size: 4, Noise: 0.5, Seed: 5})
	it, err := NewBatchIterator(d, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]*tensor.Tensor{}
	for i := 0; i < 9; i++ { // three epochs of 4 + 4 + 2
		x, labels := it.Next()
		n := len(labels)
		want, wantLabels := d.Batch(it.order[it.cursor-n : it.cursor])
		if !x.SameShape(want) || !reflect.DeepEqual(x.Data(), want.Data()) || !reflect.DeepEqual(labels, wantLabels) {
			t.Fatalf("batch %d differs from Dataset.Batch of the same examples", i)
		}
		if prev, ok := seen[n]; ok && prev != x {
			t.Fatalf("batch %d of %d examples is a new tensor", i, n)
		}
		seen[n] = x
	}
	if len(seen) != 2 || seen[4] == seen[2] {
		t.Fatalf("want one tensor per batch size, got %d", len(seen))
	}
	if allocs := testing.AllocsPerRun(20, func() { it.Next() }); allocs != 0 {
		t.Errorf("a warm Next allocates %v objects", allocs)
	}
}

// TestSubsetSharesExamples: a subset is a list of the parent's examples, not
// a copy of them — a worker's shard costs its index, not its images.
func TestSubsetSharesExamples(t *testing.T) {
	d := MustSynthetic(SyntheticConfig{Examples: 6, Classes: 3, Channels: 2, Size: 3, Noise: 0.1, Seed: 4})
	sub := d.Subset([]int{4, 1})
	for i, idx := range []int{4, 1} {
		if &sub.images[i][0] != &d.images[idx][0] || sub.Label(i) != d.Label(idx) {
			t.Fatalf("subset example %d is not the parent's example %d", i, idx)
		}
	}
}
