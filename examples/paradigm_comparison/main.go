// Paradigm comparison: train the same model on the same data under BSP, ASP,
// SSP and DSSP with one artificially slowed worker (emulating the paper's
// heterogeneous cluster on a single machine), then compare accuracy, wall-
// clock time and per-worker waiting time.
//
//	go run ./examples/paradigm_comparison
package main

import (
	"fmt"
	"log"
	"time"

	"dssp"
)

func main() {
	paradigms := []dssp.Sync{
		{Paradigm: dssp.BSP},
		{Paradigm: dssp.ASP},
		{Paradigm: dssp.SSP, Staleness: 3},
		dssp.DefaultDSSP(),
	}

	fmt.Printf("%-16s %-10s %-10s %-12s %-14s %-14s\n",
		"paradigm", "accuracy", "time", "to 0.70 acc", "fast-worker", "slow-worker")
	fmt.Printf("%-16s %-10s %-10s %-12s %-14s %-14s\n",
		"", "", "", "", "wait", "wait")

	for _, sync := range paradigms {
		result, err := dssp.Train(dssp.TrainConfig{
			Model:        dssp.ModelSmallMLP,
			Workers:      3,
			BatchSize:    16,
			Epochs:       8,
			Sync:         sync,
			LearningRate: 0.1,
			Dataset: dssp.DatasetConfig{
				Examples:  384,
				Classes:   4,
				ImageSize: 16,
				Noise:     0.6,
				Seed:      7,
			},
			// Worker 2 is ~an order of magnitude slower per iteration, like
			// the GTX1060 next to the GTX1080Ti in the paper's §V-D cluster.
			WorkerDelays: []time.Duration{0, 0, 5 * time.Millisecond},
			Seed:         7,
		})
		if err != nil {
			log.Fatal(err)
		}
		to70 := "-"
		if d, ok := result.TimeToAccuracy(0.70); ok {
			to70 = d.Round(time.Millisecond).String()
		}
		fmt.Printf("%-16s %-10.3f %-10s %-12s %-14s %-14s\n",
			result.Paradigm,
			result.FinalAccuracy,
			result.Duration.Round(time.Millisecond),
			to70,
			result.Waits[0].Round(time.Millisecond),
			result.Waits[2].Round(time.Millisecond),
		)
	}
}
