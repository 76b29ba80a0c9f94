// Package simulate contains the event-driven cluster simulator used to
// regenerate the paper's evaluation (Figures 3-4, Table I) without the
// original GPU clusters. Worker compute times, parameter-server transfer
// times and server-side update costs are modelled from calibrated hardware
// profiles; synchronization is driven by exactly the same core.Policy
// implementations used by the real parameter server; and a staleness-aware
// convergence model converts the resulting update trace into accuracy-versus-
// time curves. DESIGN.md documents the substitution and EXPERIMENTS.md the
// calibration outcomes.
package simulate

import (
	"time"
)

// GPUProfile describes a GPU model by its throughput relative to the paper's
// reference accelerator (NVIDIA P100 = 1.0).
type GPUProfile struct {
	// Name is the marketing name used in experiment labels.
	Name string
	// Speed is relative iteration throughput (higher is faster).
	Speed float64
}

// GPU profiles used in the paper's two clusters. Relative speeds follow the
// cards' single-precision throughput ratios.
var (
	GPUP100      = GPUProfile{Name: "P100", Speed: 1.0}
	GPUGTX1080Ti = GPUProfile{Name: "GTX1080Ti", Speed: 0.9}
	GPUGTX1060   = GPUProfile{Name: "GTX1060", Speed: 0.38}
)

// ModelProfile describes a DNN architecture as the simulator sees it: how
// long one mini-batch takes to compute on the reference GPU, how many
// parameters must be exchanged per iteration, how many parameter tensors
// (server keys) the update touches, and the anchors of its convergence model.
type ModelProfile struct {
	// Name labels the model in figures ("AlexNet-small", "ResNet-50", ...).
	Name string
	// Params is the number of scalar parameters exchanged per push/pull.
	Params int
	// Layers approximates the number of parameter-server keys; asynchronous
	// updates pay a per-key server cost that synchronous aggregation
	// amortizes over the whole round.
	Layers int
	// ComputeTime is the duration of one mini-batch (batch size 128) forward
	// and backward pass on the reference GPU.
	ComputeTime time.Duration
	// HasFullyConnected mirrors the paper's model categorisation in §V-C.
	HasFullyConnected bool
	// Convergence anchors the accuracy model for this model/dataset pair.
	Convergence ConvergenceSpec
}

// Bytes returns the size of one parameter transfer in bytes (float32).
func (m ModelProfile) Bytes() int { return 4 * m.Params }

// The paper's three architectures with calibration chosen so that per-
// iteration times and the compute/communication ratio reproduce the wall-
// clock scales of Figures 3-4: the downsized AlexNet is communication-bound
// (many parameters, cheap convolutions) while the ResNets are compute-bound
// (few parameters, expensive convolutions).
var (
	// ModelAlexNetSmall is the downsized AlexNet (3 conv + 2 FC layers)
	// trained on CIFAR-10 in the paper.
	ModelAlexNetSmall = ModelProfile{
		Name:              "AlexNet-small",
		Params:            2_100_000,
		Layers:            5,
		ComputeTime:       14 * time.Millisecond,
		HasFullyConnected: true,
		Convergence: ConvergenceSpec{
			FloorAccuracy:        0.10,
			PeakAccuracy:         0.645,
			ProgressRate:         4,
			StalenessQuality:     0.02,
			StalenessPenalty:     0.10,
			PenaltyHalfLife:      6,
			NoiseBonus:           0,
			NoiseBonusSaturation: 1,
			UnboundedPenalty:     0.03,
		},
	}

	// ModelResNet50 is the CIFAR-100 ResNet-50.
	ModelResNet50 = ModelProfile{
		Name:              "ResNet-50",
		Params:            760_000,
		Layers:            50,
		ComputeTime:       70 * time.Millisecond,
		HasFullyConnected: false,
		Convergence: ConvergenceSpec{
			FloorAccuracy:        0.01,
			PeakAccuracy:         0.65,
			ProgressRate:         7,
			StalenessQuality:     0.01,
			StalenessPenalty:     0.03,
			PenaltyHalfLife:      60,
			NoiseBonus:           0.03,
			NoiseBonusSaturation: 1,
			UnboundedPenalty:     0.004,
		},
	}

	// ModelResNet110 is the CIFAR-100 ResNet-110.
	ModelResNet110 = ModelProfile{
		Name:              "ResNet-110",
		Params:            1_730_000,
		Layers:            110,
		ComputeTime:       160 * time.Millisecond,
		HasFullyConnected: false,
		Convergence: ConvergenceSpec{
			FloorAccuracy:        0.01,
			PeakAccuracy:         0.665,
			ProgressRate:         7,
			StalenessQuality:     0.01,
			StalenessPenalty:     0.035,
			PenaltyHalfLife:      60,
			NoiseBonus:           0.035,
			NoiseBonusSaturation: 1,
			UnboundedPenalty:     0.004,
		},
	}
)

// ClusterSpec describes the distributed hardware: one GPU profile per worker
// plus the parameter-server resources every transfer and update contends for.
type ClusterSpec struct {
	// Name labels the cluster ("SOSCIP 4xP100", "mixed GTX").
	Name string
	// Workers lists one GPU per worker.
	Workers []GPUProfile
	// LinkBandwidth is the effective server network bandwidth in bytes per
	// second; pushes and pulls of all workers share it first-come-first-
	// served.
	LinkBandwidth float64
	// LinkLatency is the fixed per-transfer latency.
	LinkLatency time.Duration
	// ApplyRate is how many parameters per second the server can fold into
	// the global weights.
	ApplyRate float64
	// PerKeyOverhead is the server-side request-handling cost per parameter
	// tensor (key) for individually applied (asynchronous) updates;
	// synchronous aggregation pays it once per round instead of once per
	// push.
	PerKeyOverhead time.Duration
	// CommOverlap is the fraction of a worker's transfer time that the
	// framework hides behind computation when the paradigm does not impose a
	// barrier (the paper's §V-C: asynchronous-like schemes "shift" the
	// communication time). A barrier paradigm (BSP) cannot overlap and pays
	// the full transfer cost on the critical path.
	CommOverlap float64
	// ComputeJitter is the relative standard deviation of compute times.
	ComputeJitter float64
}

// NumWorkers returns the number of workers in the cluster.
func (c ClusterSpec) NumWorkers() int { return len(c.Workers) }

// HomogeneousCluster returns the paper's SOSCIP-like cluster: n workers, each
// driven by a P100-class accelerator.
func HomogeneousCluster(n int) ClusterSpec {
	workers := make([]GPUProfile, n)
	for i := range workers {
		workers[i] = GPUP100
	}
	return ClusterSpec{
		Name:           "homogeneous-P100",
		Workers:        workers,
		LinkBandwidth:  1.2e9,
		LinkLatency:    500 * time.Microsecond,
		ApplyRate:      6e8,
		PerKeyOverhead: 800 * time.Microsecond,
		CommOverlap:    0.7,
		ComputeJitter:  0.04,
	}
}

// HeterogeneousCluster returns the paper's mixed consumer-GPU cluster: one
// GTX1080Ti worker and one GTX1060 worker behind a single desktop-class
// server.
func HeterogeneousCluster() ClusterSpec {
	return ClusterSpec{
		Name:           "heterogeneous-GTX",
		Workers:        []GPUProfile{GPUGTX1080Ti, GPUGTX1060},
		LinkBandwidth:  0.8e9,
		LinkLatency:    1 * time.Millisecond,
		ApplyRate:      4e8,
		PerKeyOverhead: 800 * time.Microsecond,
		CommOverlap:    0.7,
		ComputeJitter:  0.05,
	}
}

// PaperEpochIterations returns the number of iterations each worker performs
// for the paper's setup: `epochs` passes over a 50,000-image training set
// split evenly across the workers with mini-batches of 128.
func PaperEpochIterations(epochs, workers int) int {
	const trainImages = 50_000
	const batch = 128
	perEpoch := trainImages / (workers * batch)
	if perEpoch < 1 {
		perEpoch = 1
	}
	return perEpoch * epochs
}
