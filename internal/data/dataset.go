// Package data provides the datasets and data-parallel plumbing used by the
// DSSP reproduction: synthetic CIFAR-like image-classification datasets (the
// substitution for CIFAR-10/100, see DESIGN.md), per-worker partitioning and
// mini-batch iteration.
package data

import (
	"fmt"
	"math/rand"

	"dssp/internal/tensor"
)

// Dataset is an in-memory labelled dataset of fixed-size images (or flat
// feature vectors when Flat is true).
type Dataset struct {
	// Channels and Size describe image geometry (Size × Size pixels); for
	// flat datasets Channels is 1 and Size is the feature count.
	Channels int
	Size     int
	// Classes is the number of distinct labels.
	Classes int
	// Flat selects (batch, features) batches instead of NCHW batches.
	Flat bool

	images [][]float32
	labels []int
}

// NewDataset returns an empty dataset with the given geometry.
func NewDataset(channels, size, classes int, flat bool) *Dataset {
	return &Dataset{Channels: channels, Size: size, Classes: classes, Flat: flat}
}

// Add appends one example. The image slice is copied.
func (d *Dataset) Add(image []float32, label int) error {
	if len(image) != d.sampleLen() {
		return fmt.Errorf("data: sample has %d values, want %d", len(image), d.sampleLen())
	}
	if label < 0 || label >= d.Classes {
		return fmt.Errorf("data: label %d out of range [0,%d)", label, d.Classes)
	}
	img := make([]float32, len(image))
	copy(img, image)
	d.images = append(d.images, img)
	d.labels = append(d.labels, label)
	return nil
}

// sampleLen returns the number of scalars per example.
func (d *Dataset) sampleLen() int {
	if d.Flat {
		return d.Size
	}
	return d.Channels * d.Size * d.Size
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.images) }

// Label returns the label of example i.
func (d *Dataset) Label(i int) int { return d.labels[i] }

// Batch assembles the examples at the given indices into a batch tensor and
// a label slice. Image datasets produce NCHW tensors; flat datasets produce
// (batch, features).
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	batch, labels := d.newBatch(len(indices))
	d.fillBatch(batch, labels, indices)
	return batch, labels
}

// newBatch allocates a batch tensor and label slice for n examples.
func (d *Dataset) newBatch(n int) (*tensor.Tensor, []int) {
	if d.Flat {
		return tensor.New(n, d.Size), make([]int, n)
	}
	return tensor.New(n, d.Channels, d.Size, d.Size), make([]int, n)
}

// fillBatch overwrites batch and labels, sized for len(indices) examples,
// with the examples at indices.
func (d *Dataset) fillBatch(batch *tensor.Tensor, labels, indices []int) {
	bd := batch.Data()
	stride := d.sampleLen()
	for i, idx := range indices {
		if idx < 0 || idx >= len(d.images) {
			panic(fmt.Sprintf("data: index %d out of range [0,%d)", idx, len(d.images)))
		}
		copy(bd[i*stride:(i+1)*stride], d.images[idx])
		labels[i] = d.labels[idx]
	}
}

// All returns a batch containing the whole dataset, useful for evaluation of
// small datasets.
func (d *Dataset) All() (*tensor.Tensor, []int) {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Batch(idx)
}

// Subset returns a new dataset of the examples at the given indices. It
// shares their storage with d: an example is never written after Add.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := NewDataset(d.Channels, d.Size, d.Classes, d.Flat)
	out.images = make([][]float32, len(indices))
	out.labels = make([]int, len(indices))
	for i, idx := range indices {
		out.images[i], out.labels[i] = d.images[idx], d.labels[idx]
	}
	return out
}

// ClassCounts returns how many examples each class has.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, l := range d.labels {
		counts[l]++
	}
	return counts
}

// SyntheticConfig describes a synthetic classification dataset: each class
// has a random prototype image and samples are the prototype plus Gaussian
// pixel noise. The signal-to-noise ratio controls how hard the task is.
type SyntheticConfig struct {
	// Examples is how many examples are drawn: the set's first Examples.
	Examples int
	// From is the first example kept. Those before it are drawn and dropped,
	// so every kept example is bit for bit the one a generation of the whole
	// set makes at its index; zero keeps them all.
	From int
	// Classes is the number of classes (10 mimics CIFAR-10, 100 CIFAR-100).
	Classes int
	// Channels and Size give the image geometry (3 and 32 mimic CIFAR).
	Channels int
	Size     int
	// Noise is the standard deviation of the additive Gaussian pixel noise.
	Noise float64
	// Flat produces a flat feature-vector dataset instead of images.
	Flat bool
	// Seed makes generation deterministic.
	Seed int64
}

// Synthetic generates a dataset according to cfg: examples From to
// Examples-1 of the set, at indices 0 to Examples-From-1. Every example's
// noise comes off one seeded stream in index order, so the examples before
// From are drawn to advance it and none after Examples is.
func Synthetic(cfg SyntheticConfig) (*Dataset, error) {
	if cfg.Examples <= 0 || cfg.Classes <= 0 {
		return nil, fmt.Errorf("data: synthetic config needs positive examples and classes, got %d/%d",
			cfg.Examples, cfg.Classes)
	}
	if cfg.Channels <= 0 || cfg.Size <= 0 {
		return nil, fmt.Errorf("data: synthetic config needs positive geometry, got %dx%d", cfg.Channels, cfg.Size)
	}
	if cfg.From < 0 || cfg.From > cfg.Examples {
		return nil, fmt.Errorf("data: synthetic config keeps from example %d of %d", cfg.From, cfg.Examples)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := NewDataset(cfg.Channels, cfg.Size, cfg.Classes, cfg.Flat)
	sample := d.sampleLen()

	prototypes := make([][]float32, cfg.Classes)
	for c := range prototypes {
		proto := make([]float32, sample)
		for i := range proto {
			proto[i] = float32(rng.NormFloat64())
		}
		prototypes[c] = proto
	}
	for range cfg.From * sample {
		rng.NormFloat64()
	}
	img := make([]float32, sample)
	for i := cfg.From; i < cfg.Examples; i++ {
		label := i % cfg.Classes
		proto := prototypes[label]
		for j := range img {
			img[j] = proto[j] + float32(rng.NormFloat64()*cfg.Noise)
		}
		if err := d.Add(img, label); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// MustSynthetic is like Synthetic but panics on configuration errors. It is
// intended for tests and examples with constant configurations.
func MustSynthetic(cfg SyntheticConfig) *Dataset {
	d, err := Synthetic(cfg)
	if err != nil {
		panic(err)
	}
	return d
}
