package simulate

import (
	"fmt"
	"sort"
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

// DefaultExperimentConfig returns the paper's settings: 300 epochs.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{Epochs: 300, Seed: 1, Points: 60}
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

// TimeToAccuracy returns, per curve, the first simulated time at which the
// target accuracy was reached (Table I). Curves that never reach it are
// omitted.
func (f *Figure) TimeToAccuracy(target float64) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, r := range f.Results {
		if d, ok := r.Curve.TimeToReach(target); ok {
			out[r.Label] = d
		}
	}
	return out
}

// runParadigm simulates one paradigm on the given workload and converts the
// result into a labelled accuracy curve.
func runParadigm(model ModelProfile, cluster ClusterSpec, policy core.PolicyConfig, cfg ExperimentConfig, label string) (ParadigmResult, error) {
	iters := PaperEpochIterations(cfg.Epochs, cluster.NumWorkers())
	run, err := Run(RunConfig{
		Model:               model,
		Cluster:             cluster,
		Policy:              policy,
		IterationsPerWorker: iters,
		Seed:                cfg.Seed,
	})
	if err != nil {
		return ParadigmResult{}, err
	}
	total := iters * cluster.NumWorkers()
	curve := AccuracyCurve(model.Convergence, run, total, cfg.Points)
	if label == "" {
		label = policy.Describe()
	}
	res := ParadigmResult{Label: label, Curve: curve, Run: run, Finish: run.Finish}
	if last, ok := curve.Last(); ok {
		res.FinalAccuracy = last.Value
	}
	return res, nil
}

// paperDSSP returns the paper's DSSP setting: sL=3 with range r=12
// (equivalent SSP threshold range [3, 15]).
func paperDSSP() core.PolicyConfig {
	return core.PolicyConfig{Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12}
}

// CompareParadigms regenerates a left-column figure of Figure 3: BSP, ASP,
// DSSP(sL=3, r=12) and the average of SSP with thresholds 3..15, on the
// given model over the given cluster.
func CompareParadigms(id, title string, model ModelProfile, cluster ClusterSpec, cfg ExperimentConfig) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{ID: id, Title: title, Model: model, Cluster: cluster, Epochs: cfg.Epochs}

	bsp, err := runParadigm(model, cluster, core.PolicyConfig{Paradigm: core.ParadigmBSP}, cfg, "BSP")
	if err != nil {
		return nil, err
	}
	asp, err := runParadigm(model, cluster, core.PolicyConfig{Paradigm: core.ParadigmASP}, cfg, "ASP")
	if err != nil {
		return nil, err
	}
	dssp, err := runParadigm(model, cluster, paperDSSP(), cfg, "DSSP s=3 r=12")
	if err != nil {
		return nil, err
	}

	sweep, err := sspSweep(model, cluster, cfg, 3, 15)
	if err != nil {
		return nil, err
	}
	curves := make([]*metrics.TimeSeries, len(sweep))
	for i, r := range sweep {
		curves[i] = r.Curve
	}
	avg := AverageSeries("Average SSP s=3 to 15", curves, cfg.Points)
	avgResult := ParadigmResult{Label: avg.Name(), Curve: avg}
	if last, ok := avg.Last(); ok {
		avgResult.FinalAccuracy = last.Value
		avgResult.Finish = last.Elapsed
	}

	fig.Results = append(fig.Results, bsp, asp, dssp, avgResult)
	return fig, nil
}

// sspSweep runs SSP for every threshold in [lo, hi].
func sspSweep(model ModelProfile, cluster ClusterSpec, cfg ExperimentConfig, lo, hi int) ([]ParadigmResult, error) {
	var out []ParadigmResult
	for s := lo; s <= hi; s++ {
		r, err := runParadigm(model, cluster,
			core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: s}, cfg, fmt.Sprintf("SSP s=%d", s))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// CompareSSPSweep regenerates a right-column figure of Figure 3: DSSP against
// each individual SSP threshold from 3 to 15.
func CompareSSPSweep(id, title string, model ModelProfile, cluster ClusterSpec, cfg ExperimentConfig) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{ID: id, Title: title, Model: model, Cluster: cluster, Epochs: cfg.Epochs}
	sweep, err := sspSweep(model, cluster, cfg, 3, 15)
	if err != nil {
		return nil, err
	}
	fig.Results = append(fig.Results, sweep...)
	dssp, err := runParadigm(model, cluster, paperDSSP(), cfg, "DSSP s=3 r=12")
	if err != nil {
		return nil, err
	}
	fig.Results = append(fig.Results, dssp)
	return fig, nil
}

// Figure3a compares all paradigms on the downsized AlexNet (CIFAR-10) over
// the homogeneous 4-worker P100 cluster.
func Figure3a(cfg ExperimentConfig) (*Figure, error) {
	return CompareParadigms("fig3a", "All paradigms, downsized AlexNet on CIFAR-10 (homogeneous)",
		ModelAlexNetSmall, HomogeneousCluster(4), cfg)
}

// Figure3b compares DSSP with individual SSP thresholds on the downsized
// AlexNet.
func Figure3b(cfg ExperimentConfig) (*Figure, error) {
	return CompareSSPSweep("fig3b", "DSSP vs SSP s=3..15, downsized AlexNet on CIFAR-10 (homogeneous)",
		ModelAlexNetSmall, HomogeneousCluster(4), cfg)
}

// Figure3c compares all paradigms on ResNet-50 (CIFAR-100).
func Figure3c(cfg ExperimentConfig) (*Figure, error) {
	return CompareParadigms("fig3c", "All paradigms, ResNet-50 on CIFAR-100 (homogeneous)",
		ModelResNet50, HomogeneousCluster(4), cfg)
}

// Figure3d compares DSSP with individual SSP thresholds on ResNet-50.
func Figure3d(cfg ExperimentConfig) (*Figure, error) {
	return CompareSSPSweep("fig3d", "DSSP vs SSP s=3..15, ResNet-50 on CIFAR-100 (homogeneous)",
		ModelResNet50, HomogeneousCluster(4), cfg)
}

// Figure3e compares all paradigms on ResNet-110 (CIFAR-100).
func Figure3e(cfg ExperimentConfig) (*Figure, error) {
	return CompareParadigms("fig3e", "All paradigms, ResNet-110 on CIFAR-100 (homogeneous)",
		ModelResNet110, HomogeneousCluster(4), cfg)
}

// Figure3f compares DSSP with individual SSP thresholds on ResNet-110.
func Figure3f(cfg ExperimentConfig) (*Figure, error) {
	return CompareSSPSweep("fig3f", "DSSP vs SSP s=3..15, ResNet-110 on CIFAR-100 (homogeneous)",
		ModelResNet110, HomogeneousCluster(4), cfg)
}

// Figure4 reproduces the heterogeneous-cluster experiment: ResNet-110 on the
// mixed GTX1060/GTX1080Ti cluster, comparing BSP, ASP, SSP s∈{3,6,15} and
// DSSP.
func Figure4(cfg ExperimentConfig) (*Figure, error) {
	cfg = cfg.withDefaults()
	model, cluster := ModelResNet110, HeterogeneousCluster()
	fig := &Figure{
		ID:      "fig4",
		Title:   "ResNet-110 on CIFAR-100, heterogeneous 2-worker cluster (GTX1060 + GTX1080Ti)",
		Model:   model,
		Cluster: cluster,
		Epochs:  cfg.Epochs,
	}
	entries := []struct {
		label  string
		policy core.PolicyConfig
	}{
		{"BSP", core.PolicyConfig{Paradigm: core.ParadigmBSP}},
		{"ASP", core.PolicyConfig{Paradigm: core.ParadigmASP}},
		{"SSP s=3", core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 3}},
		{"SSP s=6", core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 6}},
		{"SSP s=15", core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 15}},
		{"DSSP s=3 r=12", paperDSSP()},
	}
	for _, e := range entries {
		r, err := runParadigm(model, cluster, e.policy, cfg, e.label)
		if err != nil {
			return nil, err
		}
		fig.Results = append(fig.Results, r)
	}
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
	fig, err := Figure4(cfg)
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
	paradigms := []struct {
		label  string
		policy core.PolicyConfig
	}{
		{"BSP", core.PolicyConfig{Paradigm: core.ParadigmBSP}},
		{"ASP", core.PolicyConfig{Paradigm: core.ParadigmASP}},
		{"SSP s=3", core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 3}},
		{"DSSP s=3 r=12", paperDSSP()},
	}
	var out []ThroughputTrend
	for _, model := range []ModelProfile{ModelAlexNetSmall, ModelResNet50, ModelResNet110} {
		trend := ThroughputTrend{
			Model:             model.Name,
			HasFullyConnected: model.HasFullyConnected,
			FinishTimes:       make(map[string]time.Duration),
		}
		for _, p := range paradigms {
			r, err := runParadigm(model, cluster, p.policy, cfg, p.label)
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
