package dssp

import (
	"fmt"
	"time"

	"dssp/internal/compress"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/ps"
	"dssp/internal/trainer"
)

// Model identifies one of the built-in architectures for local training.
type Model string

// Built-in models. The paper's full-size architectures are available to the
// simulator (dsspsim); the local CPU trainer offers them in reduced form plus
// two small models that train in seconds.
const (
	// ModelSmallMLP is a two-layer perceptron over flat features.
	ModelSmallMLP Model = "small-mlp"
	// ModelSmallCNN is a one-conv-layer CNN over small images.
	ModelSmallCNN Model = "small-cnn"
	// ModelAlexNetSmall is the paper's downsized AlexNet (3 conv + 2 FC) for
	// 32×32 RGB images. Training it on a CPU is slow; prefer it for short
	// demonstration runs.
	ModelAlexNetSmall Model = "alexnet-small"
	// ModelResNet8 is the smallest CIFAR-style residual network (depth 8),
	// the CPU-friendly stand-in for the paper's ResNet-50/110.
	ModelResNet8 Model = "resnet-8"
)

// DatasetConfig describes the synthetic classification dataset used by local
// training (the documented substitution for CIFAR-10/100; see DESIGN.md).
type DatasetConfig struct {
	// Examples is the number of training examples.
	Examples int
	// TestExamples is the number of held-out examples (default Examples/5,
	// at least 1).
	TestExamples int
	// Classes is the number of classes.
	Classes int
	// ImageSize is the square image size for CNN models or the feature count
	// for ModelSmallMLP.
	ImageSize int
	// Noise is the pixel noise standard deviation; larger is harder.
	Noise float64
	// Seed makes generation deterministic.
	Seed int64
}

// Compression selects the gradient codec spoken on the wire between workers
// and the parameter server. Lossy codecs carry a per-worker error-feedback
// residual, so training still converges; what they buy is bandwidth — see
// the README's wire-protocol section for when to pick which. Codec is
// CompressNone (the default), CompressFP16, CompressInt8 or CompressTopK; on
// WorkerConfig the empty string instead means "adopt whatever the server
// speaks" (CompressAuto).
type Compression = compress.Config

// Codec names for Compression.Codec.
const (
	// CompressNone sends full-precision float32 tensors (the default).
	CompressNone = compress.None
	// CompressAuto (workers only) adopts the server's codec at registration.
	CompressAuto = compress.Auto
	// CompressFP16 halves the wire footprint with IEEE half precision.
	CompressFP16 = compress.FP16
	// CompressInt8 quantizes to one byte per value with a per-tensor scale.
	CompressInt8 = compress.Int8
	// CompressTopK sends only the largest-magnitude gradient entries.
	CompressTopK = compress.TopK
)

// TrainConfig configures a local distributed-training run.
type TrainConfig struct {
	// Model selects the architecture.
	Model Model
	// Dataset describes the synthetic dataset.
	Dataset DatasetConfig
	// Workers is the number of worker goroutines (the paper uses 4 servers).
	Workers int
	// BatchSize is the per-worker mini-batch size (paper: 128).
	BatchSize int
	// Epochs is the number of passes over each worker's shard (paper: 300).
	Epochs int
	// Sync selects the synchronization paradigm.
	Sync Sync
	// LearningRate and Momentum configure SGD on the server.
	LearningRate float64
	Momentum     float64
	// WorkerDelays adds an artificial per-iteration delay per worker to
	// emulate heterogeneous hardware (paper §V-D) on one machine.
	WorkerDelays []time.Duration
	// Options is the shared serving surface — store sharding, compression,
	// aggregation, guard, lease, checkpointing — handed to the run as it
	// is. Its fields are embedded (cfg.Compression, cfg.Lease, ...).
	Options
	// Seed controls model initialization and batch order.
	Seed int64
}

// Checkpoint configures parameter-store snapshots: atomic files the server
// writes every Every applied updates (and on shutdown) so a restarted server
// resumes the run where it stopped.
type Checkpoint = ps.CheckpointConfig

// TrainResult reports the outcome of a local training run: trainer.Result,
// where each field is documented.
type TrainResult = trainer.Result

// job is the training job every entry point restates — Train from
// TrainConfig, Serve from ServerConfig, RunWorker from WorkerConfig — and a
// Server keeps for Evaluate. build is the one place it is defaulted and
// turned into a model, a data split and counts.
type job struct {
	Model        Model
	Dataset      DatasetConfig
	Workers      int
	BatchSize    int
	Epochs       int
	Sync         Sync
	LearningRate float64
	Seed         int64
	// Worker is the worker whose shard a workerShard build generates.
	Worker int
}

// splits is the data build generates: none (a server), Worker's partition of
// the train split (a worker, which reads nothing else), the test split
// (Evaluate) or both (Train).
type splits int

const (
	noSplits splits = iota
	workerShard
	testSplit
	bothSplits
)

// build returns the job as a trainer.Config with unset fields defaulted: the
// model spec, the counts, the paradigm and learning rate, and the data asked
// for, each part generated on its own as a range of one synthetic set — the
// train examples first, then the test examples — so an example is the same
// whatever else is generated. The rest of the Config is the caller's.
func (j job) build(want splits) (trainer.Config, error) {
	if j.Model == "" {
		j.Model = ModelSmallMLP
	}
	if j.Workers == 0 {
		j.Workers = 4
	}
	if j.BatchSize == 0 {
		j.BatchSize = 16
	}
	if j.Epochs == 0 {
		j.Epochs = 5
	}
	if j.LearningRate == 0 {
		j.LearningRate = 0.1
	}
	if j.Sync.Paradigm == 0 {
		j.Sync = DefaultDSSP()
	}
	d := &j.Dataset
	if d.Examples == 0 {
		d.Examples = 512
	}
	if d.Classes == 0 {
		d.Classes = 4
	}
	if d.ImageSize == 0 {
		switch j.Model {
		case ModelSmallMLP:
			d.ImageSize = 16
		case ModelSmallCNN:
			d.ImageSize = 8
		default:
			d.ImageSize = 32
		}
	}
	if d.Noise == 0 {
		d.Noise = 0.5
	}
	if d.TestExamples == 0 {
		// At least one: Train and Evaluate measure accuracy on this split.
		d.TestExamples = max(d.Examples/5, 1)
	}
	cfg := trainer.Config{Workers: j.Workers, BatchSize: j.BatchSize, Epochs: j.Epochs,
		Policy: j.Sync, LearningRate: j.LearningRate, Seed: j.Seed}
	switch j.Model {
	case ModelSmallMLP:
		cfg.Model = nn.SpecSmallMLP(d.ImageSize, 32, d.Classes)
	case ModelSmallCNN:
		cfg.Model = nn.SpecSmallCNN(d.ImageSize, d.Classes)
	case ModelAlexNetSmall:
		cfg.Model = nn.SpecDownsizedAlexNet(d.Classes)
	case ModelResNet8:
		cfg.Model = nn.SpecResNet(8, d.Classes)
	default:
		return trainer.Config{}, fmt.Errorf("dssp: unknown model %q", j.Model)
	}
	if want == noSplits {
		return cfg, nil
	}
	channels, size := 3, d.ImageSize
	if j.Model == ModelSmallMLP {
		channels = 1
	}
	if j.Model == ModelAlexNetSmall {
		size = 32
	}
	gen := data.SyntheticConfig{Classes: d.Classes, Channels: channels, Size: size,
		Noise: d.Noise, Flat: j.Model == ModelSmallMLP, Seed: d.Seed}
	generate := func(from, to int) (*data.Dataset, error) {
		gen.From, gen.Examples = from, to
		return data.Synthetic(gen)
	}
	var err error
	switch want {
	case workerShard:
		var idx []int
		if idx, err = data.Partition(d.Examples, j.Worker, j.Workers); err != nil {
			return trainer.Config{}, err
		}
		from, to := 0, d.Examples // a worker with no examples trains on the whole split
		if len(idx) > 0 {
			from, to = idx[0], idx[len(idx)-1]+1
		}
		cfg.Train, err = generate(from, to)
		cfg.TrainExamples = d.Examples
	case testSplit:
		cfg.Test, err = generate(d.Examples, d.Examples+d.TestExamples)
	case bothSplits:
		if cfg.Train, err = generate(0, d.Examples); err == nil {
			cfg.Test, err = generate(d.Examples, d.Examples+d.TestExamples)
		}
	}
	if err != nil {
		return trainer.Config{}, err
	}
	return cfg, nil
}

// Train runs data-parallel training on an in-process cluster: Workers
// goroutines each train a model replica on their shard of a synthetic
// dataset, exchanging gradients and weights with a parameter server governed
// by the configured synchronization paradigm.
func Train(cfg TrainConfig) (*TrainResult, error) {
	run, err := job{Model: cfg.Model, Dataset: cfg.Dataset, Workers: cfg.Workers,
		BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Sync: cfg.Sync,
		LearningRate: cfg.LearningRate, Seed: cfg.Seed}.build(bothSplits)
	if err != nil {
		return nil, err
	}
	run.Momentum, run.WorkerDelay, run.Options = cfg.Momentum, cfg.WorkerDelays, cfg.Options
	return trainer.Run(run)
}
