package simulate

import (
	"testing"
	"time"

	"dssp/internal/core"
)

// BenchmarkSimulateOneEpochHomogeneous measures simulating one epoch of the
// 4-worker homogeneous cluster under DSSP.
func BenchmarkSimulateOneEpochHomogeneous(b *testing.B) {
	iters := PaperEpochIterations(1, 4)
	for i := 0; i < b.N; i++ {
		_, err := Run(RunConfig{
			Model:               ModelResNet110,
			Cluster:             HomogeneousCluster(4),
			Policy:              core.PolicyConfig{Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12},
			IterationsPerWorker: iters,
			Seed:                int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHeterogeneousParadigms measures the per-paradigm cost of
// the heterogeneous simulation (the inner loop of Figure 4 / Table I).
func BenchmarkSimulateHeterogeneousParadigms(b *testing.B) {
	policies := map[string]core.PolicyConfig{
		"BSP":  {Paradigm: core.ParadigmBSP},
		"ASP":  {Paradigm: core.ParadigmASP},
		"SSP":  {Paradigm: core.ParadigmSSP, Staleness: 15},
		"DSSP": {Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12},
	}
	iters := PaperEpochIterations(5, 2)
	for name, policy := range policies {
		policy := policy
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(RunConfig{
					Model:               ModelResNet110,
					Cluster:             HeterogeneousCluster(),
					Policy:              policy,
					IterationsPerWorker: iters,
					Seed:                1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccuracyCurve measures converting a full update trace into an
// accuracy curve.
func BenchmarkAccuracyCurve(b *testing.B) {
	iters := PaperEpochIterations(20, 4)
	run, err := Run(RunConfig{
		Model:               ModelResNet50,
		Cluster:             HomogeneousCluster(4),
		Policy:              core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 3},
		IterationsPerWorker: iters,
		Seed:                1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AccuracyCurve(ModelResNet50.Convergence, run, iters*4, 60)
	}
}

// benchSimCfg keeps the simulated runs short enough for benchmarking while
// preserving the curve shapes (they are scale-invariant in epoch count).
func benchSimCfg() ExperimentConfig {
	return ExperimentConfig{Epochs: 60, Seed: 1, Points: 60}
}

// reportFigure attaches per-curve metrics to the benchmark output.
func reportFigure(b *testing.B, fig *Figure, target float64) {
	b.Helper()
	for _, c := range fig.Results {
		name := sanitizeMetric(c.Label)
		b.ReportMetric(c.FinalAccuracy, name+"_final_acc")
		if d, ok := c.Curve.TimeToReach(target); ok {
			b.ReportMetric(d.Seconds(), name+"_s_to_target")
		}
	}
}

// sanitizeMetric converts a curve label into a metric-name-friendly form.
func sanitizeMetric(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFigure2PredictionModule regenerates Figure 2: the synchronization
// controller's predicted waiting time per candidate r and the r* it selects.
func BenchmarkFigure2PredictionModule(b *testing.B) {
	var selected int
	for i := 0; i < b.N; i++ {
		var err error
		_, selected, err = Figure2Waits(time.Second, 3500*time.Millisecond, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(selected), "r_star")
}

// BenchmarkFigure3aAlexNetAllParadigms regenerates Figure 3a: BSP, ASP, DSSP
// and averaged SSP training the downsized AlexNet on CIFAR-10 over the
// homogeneous cluster.
func BenchmarkFigure3aAlexNetAllParadigms(b *testing.B) {
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = RunFigure("fig3a", benchSimCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig, 0.55)
}

// BenchmarkFigure3bAlexNetSSPSweep regenerates Figure 3b: DSSP against each
// SSP threshold from 3 to 15 on the downsized AlexNet.
func BenchmarkFigure3bAlexNetSSPSweep(b *testing.B) {
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = RunFigure("fig3b", benchSimCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	dssp := result(b, fig, "DSSP s=3 r=12")
	beaten := 0
	for _, c := range fig.Results {
		if c.Label != dssp.Label && dssp.FinalAccuracy >= c.FinalAccuracy {
			beaten++
		}
	}
	b.ReportMetric(dssp.FinalAccuracy, "DSSP_final_acc")
	b.ReportMetric(float64(beaten), "SSP_curves_matched_or_beaten")
}

// BenchmarkFigure3cResNet50AllParadigms regenerates Figure 3c.
func BenchmarkFigure3cResNet50AllParadigms(b *testing.B) {
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = RunFigure("fig3c", benchSimCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig, 0.60)
}

// BenchmarkFigure3dResNet50SSPSweep regenerates Figure 3d.
func BenchmarkFigure3dResNet50SSPSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure("fig3d", benchSimCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3eResNet110AllParadigms regenerates Figure 3e.
func BenchmarkFigure3eResNet110AllParadigms(b *testing.B) {
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = RunFigure("fig3e", benchSimCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig, 0.62)
}

// BenchmarkFigure3fResNet110SSPSweep regenerates Figure 3f.
func BenchmarkFigure3fResNet110SSPSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure("fig3f", benchSimCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Heterogeneous regenerates Figure 4: ResNet-110 on the mixed
// GTX1080Ti + GTX1060 cluster.
func BenchmarkFigure4Heterogeneous(b *testing.B) {
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = RunFigure("fig4", benchSimCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig, 0.60)
}

// BenchmarkTable1TimeToAccuracy regenerates Table I: the time each paradigm
// needs to reach 0.67 and 0.68 test accuracy on the heterogeneous cluster.
func BenchmarkTable1TimeToAccuracy(b *testing.B) {
	var rows []TableIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = TableI(benchSimCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Reached067 {
			b.ReportMetric(r.To067.Seconds(), sanitizeMetric(r.Paradigm)+"_s_to_0.67")
		}
	}
}

// BenchmarkSectionVCThroughputTrends regenerates the §V-C analysis: the
// completion-time ordering of the paradigms flips between the FC-heavy
// AlexNet and the conv-only ResNets.
func BenchmarkSectionVCSectionVCThroughputTrends(b *testing.B) {
	var trends []ThroughputTrend
	for i := 0; i < b.N; i++ {
		var err error
		trends, err = SectionVCThroughputTrends(ExperimentConfig{Epochs: 30, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, tr := range trends {
		b.ReportMetric(tr.FinishTimes["BSP"].Seconds(), sanitizeMetric(tr.Model)+"_BSP_s")
		b.ReportMetric(tr.FinishTimes["ASP"].Seconds(), sanitizeMetric(tr.Model)+"_ASP_s")
	}
}

// BenchmarkAblationDSSPBoundEnforcement is the ablation for the design choice
// documented in DESIGN.md §5 (Table I): DSSP's default
// listing-faithful mode versus the strict Theorem-2 mode, against ASP and
// SSP(15), on the heterogeneous cluster. The metric of interest is the time
// to reach 0.60 accuracy — the default mode tracks ASP, the enforced mode
// tracks SSP at the upper threshold.
func BenchmarkAblationDSSPBoundEnforcement(b *testing.B) {
	modes := map[string]core.PolicyConfig{
		"default":  {Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12},
		"enforced": {Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12, EnforceBound: true},
		"ssp15":    {Paradigm: core.ParadigmSSP, Staleness: 15},
		"asp":      {Paradigm: core.ParadigmASP},
	}
	const epochs = 60
	cluster := HeterogeneousCluster()
	iters := PaperEpochIterations(epochs, cluster.NumWorkers())
	for name, policy := range modes {
		policy := policy
		b.Run(name, func(b *testing.B) {
			var reached float64
			for i := 0; i < b.N; i++ {
				run, err := Run(RunConfig{
					Model:               ModelResNet110,
					Cluster:             cluster,
					Policy:              policy,
					IterationsPerWorker: iters,
					Seed:                1,
				})
				if err != nil {
					b.Fatal(err)
				}
				curve := AccuracyCurve(ModelResNet110.Convergence, run,
					iters*cluster.NumWorkers(), 80)
				if d, ok := curve.TimeToReach(0.60); ok {
					reached = d.Seconds()
				}
			}
			b.ReportMetric(reached, "s_to_0.60")
		})
	}
}
