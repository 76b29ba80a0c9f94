package dssp

import (
	"fmt"
	"time"

	"dssp/internal/compress"
	"dssp/internal/data"
	"dssp/internal/metrics"
	"dssp/internal/nn"
	"dssp/internal/optimizer"
	"dssp/internal/ps"
	"dssp/internal/trainer"
)

// Model identifies one of the built-in architectures for local training.
type Model string

// Built-in models. The paper's full-size architectures are available for the
// simulator (see Figure); the local CPU trainer offers them in reduced form
// plus two small models that train in seconds.
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
	// TestExamples is the number of held-out examples (default Examples/5).
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
	// LearningRate, Momentum, WeightDecay configure SGD on the server.
	LearningRate float64
	Momentum     float64
	WeightDecay  float64
	// DecayEpochs lists epochs at which the learning rate is multiplied by
	// 0.1 (the paper uses 200 and 250 for the ResNets).
	DecayEpochs []int
	// WorkerDelays adds an artificial per-iteration delay per worker to
	// emulate heterogeneous hardware (paper §V-D) on one machine.
	WorkerDelays []time.Duration
	// Augment enables the image distortions discussed in §V-C.
	Augment bool
	// Options is the shared serving surface — store sharding, compression,
	// aggregation, guard, elasticity, heartbeats, checkpointing — handed to
	// the run as it is. Its fields are embedded (cfg.Compression,
	// cfg.Elastic, ...).
	Options
	// Adversaries makes listed workers Byzantine for robustness experiments:
	// the worker computes honest gradients, then misbehaves as configured
	// before pushing. See Adversary for the available behaviours.
	Adversaries map[int]Adversary
	// Seed controls model initialization and batch order.
	Seed int64
}

// Checkpoint configures parameter-store snapshots: atomic files the server
// writes every Every applied updates (and on shutdown) so a restarted server
// resumes the run where it stopped.
type Checkpoint = ps.CheckpointConfig

// TrainResult reports the outcome of a local training run.
type TrainResult struct {
	// Paradigm is the human-readable synchronization description.
	Paradigm string
	// FinalAccuracy is the test accuracy of the final global model.
	FinalAccuracy float64
	// Accuracy is test accuracy over elapsed wall-clock time.
	Accuracy *metrics.TimeSeries
	// Updates is the number of gradient updates applied by the server.
	Updates int
	// DroppedUpdates is the number of pushed updates the policy or the
	// anomaly guard discarded (the backup-worker baseline's defining metric;
	// GuardDropped counts the guard's share).
	DroppedUpdates int
	// Duration is the wall-clock training time.
	Duration time.Duration
	// MeanStaleness and MaxStaleness summarize the staleness of applied
	// updates.
	MeanStaleness float64
	MaxStaleness  int
	// WorkerWaitTime is the total synchronization wait per worker.
	WorkerWaitTime []time.Duration
	// PushedBytes and PulledBytes approximate the gradient and weight
	// payloads all workers moved over the wire — the number gradient
	// compression shrinks.
	PushedBytes int64
	PulledBytes int64
	// GuardFlags is the per-worker anomaly-flag count and Evicted the
	// workers the guard expelled, when Options.Guard is enabled — the raw
	// material for attacker-detection rates. GuardDropped counts the pushes
	// the guard rejected.
	GuardFlags   []int
	Evicted      []int
	GuardDropped int
}

// TimeToAccuracy returns when the run first reached the target accuracy.
func (r *TrainResult) TimeToAccuracy(target float64) (time.Duration, bool) {
	return r.Accuracy.TimeToReach(target)
}

// withDefaults fills unset fields with sensible values.
func (c TrainConfig) withDefaults() TrainConfig {
	if c.Model == "" {
		c.Model = ModelSmallMLP
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.Sync.Paradigm == 0 {
		c.Sync = DefaultDSSP()
	}
	d := &c.Dataset
	if d.Examples == 0 {
		d.Examples = 512
	}
	if d.Classes == 0 {
		d.Classes = 4
	}
	if d.ImageSize == 0 {
		if c.Model == ModelSmallMLP {
			d.ImageSize = 16
		} else if c.Model == ModelSmallCNN {
			d.ImageSize = 8
		} else {
			d.ImageSize = 32
		}
	}
	if d.Noise == 0 {
		d.Noise = 0.5
	}
	if d.TestExamples == 0 {
		d.TestExamples = d.Examples / 5
	}
	return c
}

// modelSpec maps the public Model name to an architecture builder.
func (c TrainConfig) modelSpec() (nn.ModelSpec, error) {
	d := c.Dataset
	switch c.Model {
	case ModelSmallMLP:
		return nn.SpecSmallMLP(d.ImageSize, 32, d.Classes), nil
	case ModelSmallCNN:
		return nn.SpecSmallCNN(d.ImageSize, d.Classes), nil
	case ModelAlexNetSmall:
		return nn.SpecDownsizedAlexNet(d.Classes), nil
	case ModelResNet8:
		return nn.SpecResNet(8, d.Classes), nil
	default:
		return nn.ModelSpec{}, fmt.Errorf("dssp: unknown model %q", c.Model)
	}
}

// buildDatasets generates the train/test split for the run.
func (c TrainConfig) buildDatasets() (*data.Dataset, *data.Dataset, error) {
	d := c.Dataset
	flat := c.Model == ModelSmallMLP
	channels := 3
	size := d.ImageSize
	if flat {
		channels = 1
	}
	if c.Model == ModelAlexNetSmall {
		size = 32
	}
	full, err := data.Synthetic(data.SyntheticConfig{
		Examples: d.Examples + d.TestExamples,
		Classes:  d.Classes,
		Channels: channels,
		Size:     size,
		Noise:    d.Noise,
		Flat:     flat,
		Seed:     d.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	trainIdx := make([]int, d.Examples)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	testIdx := make([]int, d.TestExamples)
	for i := range testIdx {
		testIdx[i] = d.Examples + i
	}
	return full.Subset(trainIdx), full.Subset(testIdx), nil
}

// Train runs data-parallel training on an in-process cluster: Workers
// goroutines each train a model replica on their shard of a synthetic
// dataset, exchanging gradients and weights with a parameter server governed
// by the configured synchronization paradigm.
func Train(cfg TrainConfig) (*TrainResult, error) {
	cfg = cfg.withDefaults()
	spec, err := cfg.modelSpec()
	if err != nil {
		return nil, err
	}
	if err := cfg.Sync.Validate(cfg.Workers); err != nil {
		return nil, err
	}
	train, test, err := cfg.buildDatasets()
	if err != nil {
		return nil, err
	}

	var schedule *optimizer.StepSchedule
	if len(cfg.DecayEpochs) > 0 {
		schedule = optimizer.NewStepSchedule(cfg.LearningRate, 0.1, cfg.DecayEpochs...)
	}
	var augment data.Augmenter
	if cfg.Augment {
		augment = data.Pipeline{
			data.HorizontalFlip{P: 0.5},
			data.GaussianNoise{StdDev: 0.05},
		}
	}

	res, err := trainer.Run(trainer.Config{
		Model:        spec,
		Train:        train,
		Test:         test,
		Workers:      cfg.Workers,
		BatchSize:    cfg.BatchSize,
		Epochs:       cfg.Epochs,
		Policy:       cfg.Sync,
		LearningRate: cfg.LearningRate,
		Momentum:     cfg.Momentum,
		WeightDecay:  cfg.WeightDecay,
		Schedule:     schedule,
		WorkerDelay:  cfg.WorkerDelays,
		Augment:      augment,
		Options:      cfg.Options,
		Adversaries:  cfg.Adversaries,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	out := &TrainResult{
		Paradigm:       res.Paradigm,
		FinalAccuracy:  res.FinalAccuracy,
		Accuracy:       res.Accuracy,
		Updates:        res.Updates,
		DroppedUpdates: res.Dropped,
		Duration:       res.Duration,
		MeanStaleness:  res.MeanStaleness,
		MaxStaleness:   res.MaxStaleness,
		WorkerWaitTime: res.Waits,
		PushedBytes:    res.PushedBytes,
		PulledBytes:    res.PulledBytes,
		GuardFlags:     res.Guard.Flags,
		Evicted:        res.Guard.Evicted,
		GuardDropped:   res.Guard.DroppedPushes,
	}
	return out, nil
}
