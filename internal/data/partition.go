package data

import (
	"fmt"
	"math/rand"

	"dssp/internal/tensor"
)

// Partition splits the index range [0, total) into numWorkers contiguous,
// near-equal slices and returns the slice for the given worker, matching the
// paper's data-parallel setup in which each worker is assigned an equal-sized
// partition of the training data.
func Partition(total, worker, numWorkers int) ([]int, error) {
	if numWorkers <= 0 {
		return nil, fmt.Errorf("data: numWorkers must be positive, got %d", numWorkers)
	}
	if worker < 0 || worker >= numWorkers {
		return nil, fmt.Errorf("data: worker %d out of range [0,%d)", worker, numWorkers)
	}
	if total < 0 {
		return nil, fmt.Errorf("data: negative total %d", total)
	}
	base := total / numWorkers
	rem := total % numWorkers
	start := worker*base + min(worker, rem)
	size := base
	if worker < rem {
		size++
	}
	out := make([]int, size)
	for i := range out {
		out[i] = start + i
	}
	return out, nil
}

// PartitionDataset returns worker's shard of the dataset as a standalone
// dataset.
func PartitionDataset(d *Dataset, worker, numWorkers int) (*Dataset, error) {
	idx, err := Partition(d.Len(), worker, numWorkers)
	if err != nil {
		return nil, err
	}
	return d.Subset(idx), nil
}

// BatchIterator cycles through a dataset in shuffled mini-batches, reshuffling
// at the start of every epoch; one full pass over the data is one epoch.
type BatchIterator struct {
	dataset   *Dataset
	batchSize int
	rng       *rand.Rand
	order     []int
	cursor    int
	epoch     int
	// full and tail are what Next fills and returns: one batch tensor and
	// label slice for the configured size, one for an epoch's short last
	// batch.
	full, tail reusedBatch
}

// reusedBatch is one batch shape's tensor and labels, allocated on first use.
type reusedBatch struct {
	x      *tensor.Tensor
	labels []int
}

// NewBatchIterator returns an iterator over d with the given batch size.
func NewBatchIterator(d *Dataset, batchSize int, seed int64) (*BatchIterator, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("data: batch size must be positive, got %d", batchSize)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("data: cannot iterate over an empty dataset")
	}
	it := &BatchIterator{
		dataset:   d,
		batchSize: batchSize,
		rng:       rand.New(rand.NewSource(seed)),
		order:     make([]int, d.Len()),
	}
	for i := range it.order {
		it.order[i] = i
	}
	it.shuffle()
	return it, nil
}

// shuffle re-randomizes the iteration order.
func (it *BatchIterator) shuffle() {
	it.rng.Shuffle(len(it.order), func(i, j int) {
		it.order[i], it.order[j] = it.order[j], it.order[i]
	})
}

// Next returns the next mini-batch, wrapping around (and reshuffling) at the
// end of each epoch. Batches at the end of an epoch may be smaller than the
// configured batch size. The tensor and labels are the iterator's, refilled
// by every call: valid until the next Next, and a caller that keeps a batch
// longer copies it (Dataset.Batch builds one of its own).
func (it *BatchIterator) Next() (*tensor.Tensor, []int) {
	if it.cursor >= len(it.order) {
		it.cursor = 0
		it.epoch++
		it.shuffle()
	}
	end := it.cursor + it.batchSize
	if end > len(it.order) {
		end = len(it.order)
	}
	indices := it.order[it.cursor:end]
	it.cursor = end
	b := &it.full
	if len(indices) < it.batchSize {
		b = &it.tail
	}
	if b.x == nil {
		b.x, b.labels = it.dataset.newBatch(len(indices))
	}
	it.dataset.fillBatch(b.x, b.labels, indices)
	return b.x, b.labels
}
