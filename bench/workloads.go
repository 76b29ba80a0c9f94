package main

import (
	"fmt"
	"math"
	"time"

	"dssp"
	"dssp/internal/compress"
)

// workers is the closed-loop client count of every workload: two worker
// connections, matching the reference box's two cores.
const workers = 2

// Topologies a workload can stand up.
const (
	topoFlat  = "flat"  // one standalone server
	topoGroup = "group" // coordinator + 2 data servers
	topoTree  = "tree"  // root + 1 relay of fanout 2
)

// workload is one fixed set of inputs the benchmark runs. Names are fixed:
// BENCHMARK.json, the README and later issues refer to them verbatim.
type workload struct {
	Name        string
	Why         string
	Topology    string
	Model       dssp.Model
	Dataset     dssp.DatasetConfig // Seed is filled from -seed
	Batch       int
	Compression dssp.Compression
	// Delay is the per-iteration sleep emulating each worker's GPU.
	Delay [workers]time.Duration
	// Rate is each worker's speed on the reference box in iterations/s. It
	// only sizes the fixed iteration quota (Rate × window, rounded to whole
	// epochs), so counts repeat exactly for a given -seconds.
	Rate [workers]float64
	// LearningRate is the server-side SGD step; 0 keeps the product default.
	LearningRate float64
	// LossCeiling bounds each worker's final mini-batch loss.
	LossCeiling float64
	// MinAccuracy is the held-out accuracy the trained model must reach;
	// 0 where the run is too short (flat-compute) or the topology cannot
	// evaluate cheaply (group).
	MinAccuracy float64
}

// wideMLP is the communication-bound model: 8192×32 + 32×8 weights, 262k
// parameters, 1 MB pushed and 1 MB pulled per iteration, negligible compute.
var wideMLP = dssp.DatasetConfig{Examples: 256, TestExamples: 64, Classes: 8, ImageSize: 8192, Noise: 0.5}

// wideLR is the wide MLP's server-side learning rate. The product default
// (0.1) saturates the softmax within a few steps on 8192 features; the
// gradients then go subnormal, x86 subnormal arithmetic makes the very same
// iteration ~4× slower, and whether a run falls into that regime depends on
// the seed. 0.001 converges (loss ≈ 1e-3, accuracy 1.0) and never gets there.
const wideLR = 0.001

func commWorkload(name, why, topo string, rate float64, c dssp.Compression) workload {
	w := workload{
		Name: name, Why: why, Topology: topo,
		Model: dssp.ModelSmallMLP, Dataset: wideMLP, Batch: 4, Compression: c,
		Rate: [workers]float64{rate, rate}, LearningRate: wideLR, LossCeiling: 0.5, MinAccuracy: 0.9,
	}
	if topo == topoGroup {
		// A coordinator evaluates by re-pulling every data server's shards;
		// the flat and tree workloads already cover convergence of this model.
		w.MinAccuracy = 0
	}
	return w
}

// workloads lists every workload in report order.
var workloads = []workload{
	{
		Name:     "flat-compute",
		Why:      "ResNet-8 on a flat server: nn and tensor kernels do >95% of the work, wire and store <1%; comm-side changes must not show here",
		Topology: topoFlat,
		Model:    dssp.ModelResNet8,
		Dataset:  dssp.DatasetConfig{Examples: 64, TestExamples: 16, Classes: 10, ImageSize: 32, Noise: 0.5},
		Batch:    8,
		Rate:     [workers]float64{6.2, 6.2},
		// ln 10: a model that learned nothing sits at the uniform-guess loss.
		LossCeiling: math.Log(10),
	},
	commWorkload("flat-comm",
		"wide MLP, dense, flat server: 1 MB pushed and 1 MB pulled per iteration, so transport and ps (wire, decode, apply, COW, pull) hold the largest share",
		topoFlat, 225, dssp.Compression{}),
	commWorkload("flat-comm-fp16",
		"flat-comm with fp16 on push and pull: half the bytes, codec passes on all four ends",
		topoFlat, 92, dssp.Compression{Codec: dssp.CompressFP16, Pull: true}),
	commWorkload("group-comm",
		"wide MLP through coordinator + 2 data servers: metadata push plus parallel fragment push and pull",
		topoGroup, 222, dssp.Compression{}),
	commWorkload("tree-comm",
		"wide MLP through one fanout-2 relay: fold two pushes into one root frame, pass-through pulls",
		topoTree, 157, dssp.Compression{}),
	{
		Name:        "hetero-dssp",
		Why:         "sleep-emulated 4 ms and 14 ms GPUs (the paper's Fig. 2 ratio 3.5): policy and release path decide the result",
		Topology:    topoFlat,
		Model:       dssp.ModelSmallMLP,
		Dataset:     dssp.DatasetConfig{Examples: 256, TestExamples: 64, Classes: 4, ImageSize: 64, Noise: 0.5},
		Batch:       8,
		Delay:       [workers]time.Duration{4 * time.Millisecond, 14 * time.Millisecond},
		Rate:        [workers]float64{224, 68},
		LossCeiling: 0.5,
		MinAccuracy: 0.9,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sync is the paradigm every workload runs: the paper's DSSP(sL=3, r=12).
func (w workload) sync() dssp.Sync { return dssp.DefaultDSSP() }

// itersPerEpoch mirrors RunWorker's quota arithmetic: each worker owns an
// equal shard and walks it in whole batches.
func (w workload) itersPerEpoch() int {
	shard := w.Dataset.Examples / workers
	return (shard + w.Batch - 1) / w.Batch
}

// epochs sizes each worker's quota for a measurement window.
func (w workload) epochs(window time.Duration) [workers]int {
	var e [workers]int
	for i, r := range w.Rate {
		e[i] = max(1, int(math.Round(r*window.Seconds()/float64(w.itersPerEpoch()))))
	}
	return e
}

// serverConfig is the configuration shared by every server of the topology.
func (w workload) serverConfig(seed int64) dssp.ServerConfig {
	ds := w.Dataset
	ds.Seed = seed
	return dssp.ServerConfig{
		Addr:         "127.0.0.1:0",
		Workers:      workers,
		Sync:         w.sync(),
		Model:        w.Model,
		Dataset:      ds,
		LearningRate: w.LearningRate,
		Options:      dssp.Options{Compression: w.Compression},
		Seed:         seed,
	}
}

// workerConfig is worker id's RunWorker configuration against root.
func (w workload) workerConfig(id int, root string, seed int64, epochs int) dssp.WorkerConfig {
	ds := w.Dataset
	ds.Seed = seed
	return dssp.WorkerConfig{
		ServerAddr: root,
		Cluster:    w.Topology == topoGroup,
		Tree:       w.Topology == topoTree,
		WorkerID:   id,
		Workers:    workers,
		Model:      w.Model,
		Dataset:    ds,
		BatchSize:  w.Batch,
		Epochs:     epochs,
		Seed:       seed,
		Delay:      w.Delay[id],
		Options:    dssp.Options{Compression: w.Compression},
	}
}

// codecConfig is the public compression knob in the codec subsystem's form.
func codecConfig(c dssp.Compression) compress.Config {
	return compress.Config{Codec: c.Codec, TopK: c.TopK, Pull: c.Pull}.Normalized()
}

// validate checks the workload is internally consistent before anything is
// started: a bad table entry must fail fast, not as a hung child.
func (w workload) validate() error {
	if err := w.sync().Validate(workers); err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	if err := codecConfig(w.Compression).Validate(false); err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	switch w.Topology {
	case topoFlat, topoGroup, topoTree:
	default:
		return fmt.Errorf("%s: unknown topology %q", w.Name, w.Topology)
	}
	if wc := w.workerConfig(0, "", 1, 1); wc.Cluster && wc.Tree {
		return fmt.Errorf("%s: Cluster and Tree are mutually exclusive", w.Name)
	}
	if w.Dataset.Examples%(workers*w.Batch) != 0 {
		return fmt.Errorf("%s: %d examples do not split into whole batches of %d for %d workers",
			w.Name, w.Dataset.Examples, w.Batch, workers)
	}
	for i, r := range w.Rate {
		if r <= 0 {
			return fmt.Errorf("%s: worker %d has no reference rate", w.Name, i)
		}
	}
	if w.LossCeiling <= 0 {
		return fmt.Errorf("%s: no loss ceiling", w.Name)
	}
	return nil
}
