package simulate

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"dssp/internal/core"
	"dssp/internal/metrics"
)

// ExperimentConfig controls how the paper's experiments are regenerated.
type ExperimentConfig struct {
	// Epochs is the number of training epochs to simulate; the paper uses
	// 300. Benchmarks use smaller values since the curve shapes are scale-
	// invariant under the convergence model's normalization.
	Epochs int
	// Seed drives compute-time jitter.
	Seed int64
	// Points is the approximate number of samples per accuracy curve.
	Points int
}

// withDefaults fills unset fields.
func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if c.Epochs <= 0 {
		c.Epochs = 300
	}
	if c.Points <= 0 {
		c.Points = 60
	}
	return c
}

// ParadigmResult is one curve of a figure.
type ParadigmResult struct {
	// Label names the paradigm (legend entry).
	Label string
	// Curve is simulated test accuracy against training time.
	Curve *metrics.TimeSeries
	// Run is the underlying simulation outcome.
	Run *RunResult
	// FinalAccuracy is the last point of the curve.
	FinalAccuracy float64
	// Finish is the simulated time at which all workers completed.
	Finish time.Duration
}

// Figure is one regenerated figure (or table) of the paper: a set of curves
// over the same model and cluster.
type Figure struct {
	// ID is the paper's figure/table identifier, e.g. "fig3a" or "table1".
	ID string
	// Title describes the experiment.
	Title string
	// Model and Cluster identify the workload.
	Model   ModelProfile
	Cluster ClusterSpec
	// Epochs is the number of simulated epochs.
	Epochs int
	// Results holds one entry per curve, in legend order.
	Results []ParadigmResult
}

// Result returns the named curve and whether it exists.
func (f *Figure) Result(label string) (ParadigmResult, bool) {
	for _, r := range f.Results {
		if r.Label == label {
			return r, true
		}
	}
	return ParadigmResult{}, false
}

// runParadigm simulates one curve's policy on the given workload and converts
// the result into its labelled accuracy curve.
func runParadigm(model ModelProfile, cluster ClusterSpec, c curveSpec, cfg ExperimentConfig) (ParadigmResult, error) {
	iters := PaperEpochIterations(cfg.Epochs, cluster.NumWorkers())
	run, err := Run(RunConfig{
		Model:               model,
		Cluster:             cluster,
		Policy:              c.policy,
		IterationsPerWorker: iters,
		Seed:                cfg.Seed,
	})
	if err != nil {
		return ParadigmResult{}, err
	}
	total := iters * cluster.NumWorkers()
	curve := AccuracyCurve(model.Convergence, run, total, cfg.Points)
	res := ParadigmResult{Label: c.label, Curve: curve, Run: run, Finish: run.Finish}
	if last, ok := curve.Last(); ok {
		res.FinalAccuracy = last.Value
	}
	return res, nil
}

// curveSpec is one simulated curve of a figure: a legend label and the
// policy it runs.
type curveSpec struct {
	label  string
	policy core.PolicyConfig
}

// The paper's paradigms as its figures label them. DSSP runs the paper's
// setting, sL=3 with range r=12 (the SSP threshold range [3, 15]).
var (
	bspCurve  = curveSpec{"BSP", core.PolicyConfig{Paradigm: core.ParadigmBSP}}
	aspCurve  = curveSpec{"ASP", core.PolicyConfig{Paradigm: core.ParadigmASP}}
	dsspCurve = curveSpec{"DSSP s=3 r=12", core.PolicyConfig{Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12}}
)

// sspCurve is SSP at threshold s.
func sspCurve(s int) curveSpec {
	return curveSpec{fmt.Sprintf("SSP s=%d", s), core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: s}}
}

// sspSweep is SSP at every threshold of the paper's sweep, 3 to 15.
func sspSweep() []curveSpec {
	var out []curveSpec
	for s := 3; s <= 15; s++ {
		out = append(out, sspCurve(s))
	}
	return out
}

// figureSpec declares one of the paper's figures: the workload and the
// curves drawn, in legend order. averageSSP draws one more curve last, the
// point-wise mean of the SSP sweep's curves.
type figureSpec struct {
	id, title  string
	model      ModelProfile
	cluster    ClusterSpec
	curves     []curveSpec
	averageSSP bool
}

// The two columns of Figure 3: every paradigm with the average of the SSP
// sweep on the left, DSSP against each threshold of the sweep on the right.
var (
	allParadigms = []curveSpec{bspCurve, aspCurve, dsspCurve}
	sweepAndDSSP = append(sspSweep(), dsspCurve)
)

// paperFigures declares the paper's figures in paper order.
var paperFigures = []figureSpec{
	{"fig3a", "All paradigms, downsized AlexNet on CIFAR-10 (homogeneous)", ModelAlexNetSmall, HomogeneousCluster(4), allParadigms, true},
	{"fig3b", "DSSP vs SSP s=3..15, downsized AlexNet on CIFAR-10 (homogeneous)", ModelAlexNetSmall, HomogeneousCluster(4), sweepAndDSSP, false},
	{"fig3c", "All paradigms, ResNet-50 on CIFAR-100 (homogeneous)", ModelResNet50, HomogeneousCluster(4), allParadigms, true},
	{"fig3d", "DSSP vs SSP s=3..15, ResNet-50 on CIFAR-100 (homogeneous)", ModelResNet50, HomogeneousCluster(4), sweepAndDSSP, false},
	{"fig3e", "All paradigms, ResNet-110 on CIFAR-100 (homogeneous)", ModelResNet110, HomogeneousCluster(4), allParadigms, true},
	{"fig3f", "DSSP vs SSP s=3..15, ResNet-110 on CIFAR-100 (homogeneous)", ModelResNet110, HomogeneousCluster(4), sweepAndDSSP, false},
	{"fig4", "ResNet-110 on CIFAR-100, heterogeneous 2-worker cluster (GTX1060 + GTX1080Ti)", ModelResNet110, HeterogeneousCluster(),
		[]curveSpec{bspCurve, aspCurve, sspCurve(3), sspCurve(6), sspCurve(15), dsspCurve}, false},
}

// FigureIDs lists the ids RunFigure accepts, in paper order.
func FigureIDs() []string {
	ids := make([]string, len(paperFigures))
	for i, f := range paperFigures {
		ids[i] = f.id
	}
	return ids
}

// RunFigure regenerates the paper's figure id (case-insensitive; FigureIDs
// lists them) on the simulator.
func RunFigure(id string, cfg ExperimentConfig) (*Figure, error) {
	i := slices.IndexFunc(paperFigures, func(f figureSpec) bool { return strings.EqualFold(f.id, id) })
	if i < 0 {
		return nil, fmt.Errorf("simulate: unknown figure %q (valid: %s)", id, strings.Join(FigureIDs(), ", "))
	}
	spec := paperFigures[i]
	cfg = cfg.withDefaults()
	fig := &Figure{ID: spec.id, Title: spec.title, Model: spec.model, Cluster: spec.cluster, Epochs: cfg.Epochs}
	fig.Cluster.Workers = slices.Clone(spec.cluster.Workers) // the table's stays unshared
	for _, c := range spec.curves {
		r, err := runParadigm(spec.model, spec.cluster, c, cfg)
		if err != nil {
			return nil, err
		}
		fig.Results = append(fig.Results, r)
	}
	if !spec.averageSSP {
		return fig, nil
	}
	var curves []*metrics.TimeSeries
	for _, c := range sspSweep() {
		r, err := runParadigm(spec.model, spec.cluster, c, cfg)
		if err != nil {
			return nil, err
		}
		curves = append(curves, r.Curve)
	}
	avg := AverageSeries("Average SSP s=3 to 15", curves, cfg.Points)
	res := ParadigmResult{Label: avg.Name(), Curve: avg}
	if last, ok := avg.Last(); ok {
		res.FinalAccuracy = last.Value
		res.Finish = last.Elapsed
	}
	fig.Results = append(fig.Results, res)
	return fig, nil
}

// TableIRow is one row of Table I: the time a paradigm needed to reach the
// two target accuracies on the heterogeneous cluster.
type TableIRow struct {
	// Paradigm is the row label.
	Paradigm string
	// To067 and To068 are the times to reach 0.67 and 0.68 accuracy; Reached*
	// report whether the run ever got there ("-" in the paper).
	To067      time.Duration
	Reached067 bool
	To068      time.Duration
	Reached068 bool
}

// TableI regenerates Table I from the Figure 4 experiment.
func TableI(cfg ExperimentConfig) ([]TableIRow, error) {
	fig, err := RunFigure("fig4", cfg)
	if err != nil {
		return nil, err
	}
	rows := make([]TableIRow, 0, len(fig.Results))
	for _, r := range fig.Results {
		row := TableIRow{Paradigm: r.Label}
		row.To067, row.Reached067 = r.Curve.TimeToReach(0.67)
		row.To068, row.Reached068 = r.Curve.TimeToReach(0.68)
		rows = append(rows, row)
	}
	return rows, nil
}

// ThroughputTrend captures the §V-C observation for one model: the ordering
// of time-to-completion across paradigms flips between FC-bearing and
// conv-only models.
type ThroughputTrend struct {
	// Model names the architecture.
	Model string
	// HasFullyConnected mirrors the model profile.
	HasFullyConnected bool
	// FinishTimes maps paradigm label to simulated completion time of the
	// full run, and Order lists the labels from fastest to slowest.
	FinishTimes map[string]time.Duration
	Order       []string
}

// SectionVCThroughputTrends reproduces the §V-C comparison of iteration
// throughput trends on the homogeneous cluster for every paper model.
func SectionVCThroughputTrends(cfg ExperimentConfig) ([]ThroughputTrend, error) {
	cfg = cfg.withDefaults()
	cluster := HomogeneousCluster(4)
	paradigms := []curveSpec{bspCurve, aspCurve, sspCurve(3), dsspCurve}
	var out []ThroughputTrend
	for _, model := range []ModelProfile{ModelAlexNetSmall, ModelResNet50, ModelResNet110} {
		trend := ThroughputTrend{
			Model:             model.Name,
			HasFullyConnected: model.HasFullyConnected,
			FinishTimes:       make(map[string]time.Duration),
		}
		for _, p := range paradigms {
			r, err := runParadigm(model, cluster, p, cfg)
			if err != nil {
				return nil, err
			}
			trend.FinishTimes[p.label] = r.Finish
			trend.Order = append(trend.Order, p.label)
		}
		sort.SliceStable(trend.Order, func(a, b int) bool {
			return trend.FinishTimes[trend.Order[a]] < trend.FinishTimes[trend.Order[b]]
		})
		out = append(out, trend)
	}
	return out, nil
}

// Figure2Waits reproduces the prediction-module illustration of Figure 2: for
// a fast and a slow worker with the given iteration intervals, it returns the
// predicted waiting time of the fast worker for every candidate r in
// [0, rmax] together with the r* the controller selects.
func Figure2Waits(fastInterval, slowInterval time.Duration, rmax int) ([]time.Duration, int, error) {
	if fastInterval <= 0 || slowInterval <= 0 || rmax < 0 {
		return nil, 0, fmt.Errorf("simulate: intervals must be positive and rmax >= 0")
	}
	ctl, err := core.NewController(2, rmax)
	if err != nil {
		return nil, 0, err
	}
	base := time.Unix(0, 0)
	// Two pushes per worker establish the interval estimates; both workers
	// push most recently at the same instant, as in Figure 2's diagram.
	ctl.Observe(0, base.Add(fastInterval))
	ctl.Observe(1, base.Add(slowInterval))
	ctl.Observe(0, base.Add(fastInterval*2))
	ctl.Observe(1, base.Add(slowInterval*2))
	// Align the decision point at the fast worker's latest push.
	clocks := []int{10, 2}
	waits := make([]time.Duration, rmax+1)
	for r := 0; r <= rmax; r++ {
		w, ok := ctl.PredictedWait(0, clocks, r)
		if !ok {
			return nil, 0, fmt.Errorf("simulate: predicted wait unavailable for r=%d", r)
		}
		waits[r] = w
	}
	return waits, ctl.ExtraIterations(0, clocks), nil
}
