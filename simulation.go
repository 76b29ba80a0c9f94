package dssp

import (
	"time"

	"dssp/internal/simulate"
)

// SimulationConfig controls how the paper's evaluation is regenerated on the
// built-in cluster simulator: Epochs (paper: 300; smaller values run faster
// with the same curve shapes), Seed for compute-time jitter, and Points, the
// approximate number of samples per accuracy curve.
type SimulationConfig = simulate.ExperimentConfig

// Curve is one accuracy-versus-time curve of a regenerated figure: its
// legend Label, the sampled Curve (Points, TimeToReach), its FinalAccuracy
// and Finish time, and the simulated Run behind it (nil for the averaged SSP
// curve, which no single run draws).
type Curve = simulate.ParadigmResult

// FigureResult is a regenerated figure of the paper: its ID ("fig3a".."fig3f",
// "fig4"), Title, workload and Results, one Curve per legend entry in legend
// order (Result looks one up by label).
type FigureResult = simulate.Figure

// FigureIDs lists the reproducible figure identifiers in paper order.
func FigureIDs() []string { return simulate.FigureIDs() }

// Figure regenerates one of the paper's figures on the cluster simulator.
// Valid identifiers are returned by FigureIDs.
func Figure(id string, cfg SimulationConfig) (*FigureResult, error) {
	return simulate.RunFigure(id, cfg)
}

// TableIRow is one row of the paper's Table I: time for a paradigm to reach
// the target test accuracies on the heterogeneous cluster.
type TableIRow = simulate.TableIRow

// TableI regenerates Table I (time to reach 0.67 / 0.68 test accuracy when
// training ResNet-110 on the heterogeneous two-GPU cluster).
func TableI(cfg SimulationConfig) ([]TableIRow, error) {
	return simulate.TableI(cfg)
}

// PredictionCurve reproduces the situation of Figure 2: for a fast and a slow
// worker with the given iteration intervals, it returns the predicted waiting
// time of the fast worker for each candidate number of extra iterations r in
// [0, rmax], and the r* the DSSP synchronization controller selects.
func PredictionCurve(fastInterval, slowInterval time.Duration, rmax int) (waits []time.Duration, selected int, err error) {
	return simulate.Figure2Waits(fastInterval, slowInterval, rmax)
}

// ThroughputTrend summarizes §V-C of the paper for one model: how long each
// paradigm needs to complete the full training run on the homogeneous
// cluster.
type ThroughputTrend = simulate.ThroughputTrend

// ThroughputTrends regenerates the §V-C comparison of completion times for
// every paper model on the homogeneous cluster.
func ThroughputTrends(cfg SimulationConfig) ([]ThroughputTrend, error) {
	return simulate.SectionVCThroughputTrends(cfg)
}
