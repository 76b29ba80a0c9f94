package dssp

// This file holds the benchmarks of the paper's protocol-level claims on the
// real CPU training stack; the simulated tables and figures of its evaluation
// (Section V) are benchmarked in internal/simulate. Each reports its
// headline quantities as custom benchmark metrics so that
// `go test -bench=. -benchmem` prints them alongside the timing.

import (
	"testing"
	"time"
)

// BenchmarkTheoremRegretBound exercises the Theorem 1/2 regret bounds through
// real distributed SGD on a convex objective: it measures how the empirical
// time-to-accuracy of DSSP compares with SSP at the lower bound, the
// practical consequence of the shared O(√T) bound.
func BenchmarkTheoremRegretBound(b *testing.B) {
	var dsspAcc, sspAcc float64
	for i := 0; i < b.N; i++ {
		cfg := TrainConfig{
			Model:     ModelSmallMLP,
			Workers:   3,
			BatchSize: 16,
			Epochs:    4,
			Dataset:   DatasetConfig{Examples: 192, Classes: 3, ImageSize: 12, Noise: 0.4, Seed: 5},
			Seed:      5,
		}
		cfg.Sync = DefaultDSSP()
		dsspRes, err := Train(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Sync = Sync{Paradigm: SSP, Staleness: 3}
		sspRes, err := Train(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dsspAcc, sspAcc = dsspRes.FinalAccuracy, sspRes.FinalAccuracy
	}
	b.ReportMetric(dsspAcc, "DSSP_final_acc")
	b.ReportMetric(sspAcc, "SSP3_final_acc")
}

// BenchmarkRealTrainingSmallCNN measures end-to-end distributed training of
// the small CNN through the real parameter server under DSSP (the protocol
// sanity experiment from DESIGN.md).
func BenchmarkRealTrainingSmallCNN(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := Train(TrainConfig{
			Model:        ModelSmallCNN,
			Workers:      4,
			BatchSize:    16,
			Epochs:       3,
			Sync:         DefaultDSSP(),
			LearningRate: 0.05,
			Momentum:     0.9,
			Dataset:      DatasetConfig{Examples: 256, Classes: 4, ImageSize: 8, Noise: 0.5, Seed: 3},
			Seed:         3,
		})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.FinalAccuracy
	}
	b.ReportMetric(acc, "final_acc")
}

// BenchmarkParadigmComparisonRealTraining compares the four paradigms on the
// real CPU training stack with one slow worker, the single-machine analogue
// of the paper's heterogeneous experiment.
func BenchmarkParadigmComparisonRealTraining(b *testing.B) {
	paradigms := map[string]Sync{
		"BSP":  {Paradigm: BSP},
		"ASP":  {Paradigm: ASP},
		"SSP3": {Paradigm: SSP, Staleness: 3},
		"DSSP": DefaultDSSP(),
	}
	for name, sync := range paradigms {
		sync := sync
		b.Run(name, func(b *testing.B) {
			var res *TrainResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Train(TrainConfig{
					Model:        ModelSmallMLP,
					Workers:      3,
					BatchSize:    16,
					Epochs:       4,
					Sync:         sync,
					Dataset:      DatasetConfig{Examples: 192, Classes: 3, ImageSize: 12, Noise: 0.4, Seed: 9},
					WorkerDelays: []time.Duration{0, 0, 2 * time.Millisecond},
					Seed:         9,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.FinalAccuracy, "final_acc")
			b.ReportMetric(res.Waits[0].Seconds(), "fast_worker_wait_s")
		})
	}
}
