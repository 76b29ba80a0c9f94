package experiment

import (
	"fmt"
	"time"

	"dssp/internal/core"
	"dssp/internal/simulate"
)

// timePrecision rounds simulated durations in the text table.
const timePrecision = time.Millisecond

// NetworkScenario is one hostile-network column of the timing matrix: the
// Markov-modulated link models a simulated run's workers push and pull
// over. Crashes, adversaries and the anomaly guard are not simulated; they
// run on the real stack (internal/trainer).
type NetworkScenario struct {
	// Name labels the scenario in reports.
	Name string
	// Links assigns delay models to worker links (see simulate.LinkModel).
	Links map[int]simulate.LinkModel
}

// Standard network columns.

// CalmNetwork is the well-behaved baseline.
func CalmNetwork() NetworkScenario { return NetworkScenario{Name: "calm"} }

// FlappingNetwork degrades the listed workers' links in short 10x bursts.
func FlappingNetwork(workers ...int) NetworkScenario {
	return NetworkScenario{Name: "flapping", Links: linksFor(simulate.LinkFlapping(), workers)}
}

// PartitionedNetwork subjects the listed workers to extended near-outages.
func PartitionedNetwork(workers ...int) NetworkScenario {
	return NetworkScenario{Name: "partitioned", Links: linksFor(simulate.LinkPartitioned(), workers)}
}

func linksFor(model simulate.LinkModel, workers []int) map[int]simulate.LinkModel {
	m := make(map[int]simulate.LinkModel, len(workers))
	for _, w := range workers {
		m[w] = model
	}
	return m
}

// TimingCell is one aggregated (scenario, paradigm) cell of the timing
// matrix: a simulated run's timing under hostile links, averaged over
// trials.
type TimingCell struct {
	// Scenario and Paradigm name the cell's coordinates.
	Scenario string `json:"scenario"`
	Paradigm string `json:"paradigm"`
	// MeanFinish is the mean simulated completion time.
	MeanFinish time.Duration `json:"mean_finish_ns"`
	// Throughput is the mean applied updates per simulated second.
	Throughput float64 `json:"throughput"`
	// MeanStaleness is the mean update staleness.
	MeanStaleness float64 `json:"mean_staleness"`
}

// TimingMatrixConfig describes a simulator-backed sweep: every paradigm
// crossed with every network scenario, on timingModel and
// simulate.HeterogeneousCluster (one GTX1080Ti and one GTX1060 worker) for
// timingIterations iterations per worker.
type TimingMatrixConfig struct {
	// Policies are the paradigms to sweep; empty defaults to BSP, SSP and
	// DSSP.
	Policies []core.PolicyConfig
	// Scenarios are the network columns; empty defaults to calm, flapping
	// and partitioned with worker 0 affected.
	Scenarios []NetworkScenario
	// Trials is runs per cell; 0 means 1.
	Trials int
	// Seed decorrelates trials.
	Seed int64
}

// timingModel is the small model profile every timing cell trains.
var timingModel = simulate.ModelProfile{Name: "tiny", Params: 1e5, ComputeTime: 10 * time.Millisecond, Layers: 4}

// timingIterations is each worker's iteration budget in a timing cell.
const timingIterations = 60

// withDefaults fills the sweep axes.
func (c TimingMatrixConfig) withDefaults() TimingMatrixConfig {
	if len(c.Policies) == 0 {
		c.Policies = []core.PolicyConfig{
			{Paradigm: core.ParadigmBSP},
			{Paradigm: core.ParadigmSSP, Staleness: 3},
			{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4},
		}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = []NetworkScenario{CalmNetwork(), FlappingNetwork(0), PartitionedNetwork(0)}
	}
	if c.Trials <= 0 {
		c.Trials = 1
	}
	return c
}

// TimingMatrix runs the simulator sweep and returns its cells, which the
// caller typically attaches to a Report.
func TimingMatrix(cfg TimingMatrixConfig) ([]TimingCell, error) {
	cfg = cfg.withDefaults()
	var cells []TimingCell
	for _, sc := range cfg.Scenarios {
		for _, pol := range cfg.Policies {
			cell := TimingCell{Scenario: sc.Name, Paradigm: pol.Describe()}
			for trial := 0; trial < cfg.Trials; trial++ {
				res, err := simulate.Run(simulate.RunConfig{
					Model:               timingModel,
					Cluster:             simulate.HeterogeneousCluster(),
					Policy:              pol,
					IterationsPerWorker: timingIterations,
					Links:               sc.Links,
					Seed:                cfg.Seed + int64(trial)*104729,
				})
				if err != nil {
					return nil, fmt.Errorf("experiment: timing cell (%s, %s) trial %d: %w", sc.Name, cell.Paradigm, trial, err)
				}
				cell.MeanFinish += res.Finish
				cell.Throughput += res.Throughput()
				cell.MeanStaleness += res.MeanStaleness()
			}
			n := float64(cfg.Trials)
			cell.MeanFinish = time.Duration(float64(cell.MeanFinish) / n)
			cell.Throughput /= n
			cell.MeanStaleness /= n
			cells = append(cells, cell)
		}
	}
	return cells, nil
}
