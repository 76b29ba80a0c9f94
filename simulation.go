package dssp

import (
	"fmt"
	"strings"
	"time"

	"dssp/internal/simulate"
)

// SimulationConfig controls how the paper's evaluation is regenerated on the
// built-in cluster simulator: Epochs (paper: 300; smaller values run faster
// with the same curve shapes), Seed for compute-time jitter, and Points, the
// approximate number of samples per accuracy curve.
type SimulationConfig = simulate.ExperimentConfig

// Curve is one accuracy-versus-time curve of a regenerated figure.
type Curve struct {
	// Label is the legend entry (e.g. "DSSP s=3 r=12").
	Label string
	// Times and Accuracies are the sampled points, aligned by index.
	Times      []time.Duration
	Accuracies []float64
	// FinalAccuracy is the last sampled accuracy.
	FinalAccuracy float64
	// Finish is the simulated time at which the run completed all epochs.
	Finish time.Duration
	// MeanStaleness is the average staleness of applied updates (absent for
	// derived curves such as the averaged SSP).
	MeanStaleness float64
}

// TimeToAccuracy returns the first time the curve reached the target.
func (c Curve) TimeToAccuracy(target float64) (time.Duration, bool) {
	for i, a := range c.Accuracies {
		if a >= target {
			return c.Times[i], true
		}
	}
	return 0, false
}

// FigureResult is a regenerated figure of the paper.
type FigureResult struct {
	// ID is the paper identifier: "fig2", "fig3a".."fig3f", "fig4".
	ID string
	// Title describes the experiment.
	Title string
	// Curves holds the figure's curves in legend order.
	Curves []Curve
}

// Curve returns the curve with the given label.
func (f *FigureResult) Curve(label string) (Curve, bool) {
	for _, c := range f.Curves {
		if c.Label == label {
			return c, true
		}
	}
	return Curve{}, false
}

// FigureIDs lists the reproducible figure identifiers in paper order.
func FigureIDs() []string {
	return []string{"fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig4"}
}

// Figure regenerates one of the paper's figures on the cluster simulator.
// Valid identifiers are returned by FigureIDs.
func Figure(id string, cfg SimulationConfig) (*FigureResult, error) {
	runners := map[string]func(simulate.ExperimentConfig) (*simulate.Figure, error){
		"fig3a": simulate.Figure3a,
		"fig3b": simulate.Figure3b,
		"fig3c": simulate.Figure3c,
		"fig3d": simulate.Figure3d,
		"fig3e": simulate.Figure3e,
		"fig3f": simulate.Figure3f,
		"fig4":  simulate.Figure4,
	}
	run, ok := runners[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("dssp: unknown figure %q (valid: %s)", id, strings.Join(FigureIDs(), ", "))
	}
	fig, err := run(cfg)
	if err != nil {
		return nil, err
	}
	return convertFigure(fig), nil
}

// convertFigure maps the internal figure representation to the public one.
func convertFigure(fig *simulate.Figure) *FigureResult {
	out := &FigureResult{ID: fig.ID, Title: fig.Title}
	for _, r := range fig.Results {
		c := Curve{Label: r.Label, FinalAccuracy: r.FinalAccuracy, Finish: r.Finish}
		for _, p := range r.Curve.Points() {
			c.Times = append(c.Times, p.Elapsed)
			c.Accuracies = append(c.Accuracies, p.Value)
		}
		if r.Run != nil {
			c.MeanStaleness = r.Run.MeanStaleness()
		}
		out.Curves = append(out.Curves, c)
	}
	return out
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
