// Command dsspsim runs one ad-hoc cluster simulation: a chosen model and
// paradigm on either the homogeneous 4×P100 cluster or the heterogeneous
// GTX1080Ti+GTX1060 cluster, reporting throughput, staleness and waiting-time
// statistics and the simulated accuracy curve.
//
// Example:
//
//	dsspsim -model resnet-110 -cluster het -paradigm DSSP -epochs 100
//
// Experiment mode: -experiment swaps the single simulation for the
// robustness scenario matrix (internal/experiment) — real training runs
// crossing {clean, 1-of-4 gradient-scale attacker} with {plain sum,
// trimmed-mean+guard}, plus a simulated hostile-network timing sweep. The
// aggregate detection/robustness table prints to stdout, -out writes the
// JSON report, -trials sets runs per cell, and -accuracy-floor makes the
// process exit nonzero when any cell that should converge (every cell
// except the deliberately undefended attacked one) falls below the floor —
// the CI smoke gate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/experiment"
	"dssp/internal/nn"
	"dssp/internal/simulate"
	"dssp/internal/trainer"
)

func main() {
	var (
		model     = flag.String("model", "resnet-110", "model: alexnet-small, resnet-50, resnet-110")
		cluster   = flag.String("cluster", "hom", "cluster: hom (4xP100) or het (GTX1080Ti+GTX1060)")
		workers   = flag.Int("workers", 4, "worker count for the homogeneous cluster")
		paradigm  = flag.String("paradigm", "DSSP", "paradigm: BSP, ASP, SSP, DSSP")
		staleness = flag.Int("staleness", 3, "SSP threshold / DSSP lower bound")
		rng       = flag.Int("range", 12, "DSSP range r")
		enforce   = flag.Bool("enforce-bound", false, "DSSP Theorem-2 mode")
		epochs    = flag.Int("epochs", 100, "training epochs to simulate")
		seed      = flag.Int64("seed", 1, "jitter seed")
		experFlag = flag.Bool("experiment", false, "run the robustness scenario matrix instead of a single simulation")
		trials    = flag.Int("trials", 1, "experiment mode: training runs per matrix cell")
		out       = flag.String("out", "", "experiment mode: write the JSON report to this file")
		accFloor  = flag.Float64("accuracy-floor", 0, "experiment mode: exit 1 if any cell expected to converge falls below this accuracy")
	)
	flag.Parse()

	if *experFlag {
		if err := runExperiment(*paradigm, *staleness, *rng, *enforce, *trials, *seed, *out, *accFloor); err != nil {
			log.Fatalf("dsspsim: %v", err)
		}
		return
	}
	if err := run(*model, *cluster, *workers, *paradigm, *staleness, *rng, *enforce, *epochs, *seed); err != nil {
		log.Fatalf("dsspsim: %v", err)
	}
}

// runExperiment executes the scenario matrix: the 2x2 robustness grid on
// real training plus the simulated hostile-network timing sweep.
func runExperiment(paradigm string, staleness, rng int, enforce bool, trials int, seed int64, out string, accFloor float64) error {
	p, err := core.ParseParadigm(paradigm)
	if err != nil {
		return err
	}
	policy := core.PolicyConfig{Paradigm: p, Staleness: staleness, Range: rng, EnforceBound: enforce}

	report, err := experiment.Run(experiment.ScenarioConfig{
		Name:   fmt.Sprintf("robustness matrix (%s)", policy.Describe()),
		Base:   experimentBase(policy, seed),
		Trials: trials,
		Attacks: []experiment.Attack{
			experiment.CleanBaseline(),
			experiment.GradScaleAttack(-10, 3),
		},
		Defenses: []experiment.Defense{
			experiment.SumDefense(),
			experiment.GuardedDefense(experiment.TrimmedMeanDefense()),
		},
	})
	if err != nil {
		return err
	}
	report.Timing, err = experiment.TimingMatrix(experiment.TimingMatrixConfig{
		Policies: []core.PolicyConfig{policy},
		Trials:   trials,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	// A second sweep contrasts topologies: the same paradigm on a 16-worker
	// cluster flat versus behind fanout-4 and fanout-8 relay tiers, showing
	// the root-ingress cut in frames and bytes.
	topo, err := experiment.TimingMatrix(experiment.TimingMatrixConfig{
		Cluster:   simulate.HomogeneousCluster(16),
		Policies:  []core.PolicyConfig{policy},
		Scenarios: []experiment.NetworkScenario{experiment.CalmNetwork()},
		Fanouts:   []int{0, 4, 8},
		Trials:    trials,
		Seed:      seed,
	})
	report.Timing = append(report.Timing, topo...)
	if err != nil {
		return err
	}

	fmt.Print(report.Table())
	if out != "" {
		raw, err := report.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}

	if accFloor > 0 {
		// Every cell except the deliberately undefended attacked one must
		// clear the floor: the clean cells prove training works, the
		// defended attacked cell proves the defense does.
		for _, c := range report.Cells {
			sacrificial := c.Attackers > 0 && c.Defense == experiment.SumDefense().Name
			if sacrificial {
				continue
			}
			if c.MeanAccuracy < accFloor {
				return fmt.Errorf("cell (%s, %s) accuracy %.4f below floor %.4f", c.Attack, c.Defense, c.MeanAccuracy, accFloor)
			}
		}
		fmt.Printf("all convergent cells above accuracy floor %.2f\n", accFloor)
	}
	return nil
}

// experimentBase is the real-training workload behind every matrix cell: a
// four-worker run on the easy synthetic task, sized to finish a cell in
// tens of milliseconds.
func experimentBase(policy core.PolicyConfig, seed int64) trainer.Config {
	full := data.MustSynthetic(data.SyntheticConfig{
		Examples: 176, Classes: 3, Channels: 1, Size: 12, Noise: 0.4, Flat: true, Seed: 11,
	})
	trainIdx := make([]int, 128)
	testIdx := make([]int, 48)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	for i := range testIdx {
		testIdx[i] = 128 + i
	}
	return trainer.Config{
		Model:        nn.SpecSmallMLP(12, 16, 3),
		Train:        full.Subset(trainIdx),
		Test:         full.Subset(testIdx),
		Workers:      4,
		BatchSize:    8,
		Epochs:       6,
		Policy:       policy,
		LearningRate: 0.1,
		Seed:         seed,
	}
}

func run(model, cluster string, workers int, paradigm string, staleness, rng int, enforce bool, epochs int, seed int64) error {
	var profile simulate.ModelProfile
	switch model {
	case "alexnet-small":
		profile = simulate.ModelAlexNetSmall
	case "resnet-50":
		profile = simulate.ModelResNet50
	case "resnet-110":
		profile = simulate.ModelResNet110
	default:
		return fmt.Errorf("unknown model %q", model)
	}
	var spec simulate.ClusterSpec
	switch cluster {
	case "hom":
		spec = simulate.HomogeneousCluster(workers)
	case "het":
		spec = simulate.HeterogeneousCluster()
	default:
		return fmt.Errorf("unknown cluster %q (use hom or het)", cluster)
	}
	p, err := core.ParseParadigm(paradigm)
	if err != nil {
		return err
	}
	policy := core.PolicyConfig{Paradigm: p, Staleness: staleness, Range: rng, EnforceBound: enforce}

	iters := simulate.PaperEpochIterations(epochs, spec.NumWorkers())
	result, err := simulate.Run(simulate.RunConfig{
		Model:               profile,
		Cluster:             spec,
		Policy:              policy,
		IterationsPerWorker: iters,
		Seed:                seed,
	})
	if err != nil {
		return err
	}
	curve := simulate.AccuracyCurve(profile.Convergence, result, iters*spec.NumWorkers(), 20)

	fmt.Printf("model %s on %s, %s, %d epochs (%d iterations/worker)\n",
		profile.Name, spec.Name, policy.Describe(), epochs, iters)
	fmt.Printf("  completed in        %s\n", result.Finish.Round(time.Second))
	fmt.Printf("  updates applied     %d (%.1f/s)\n", len(result.Updates), result.Throughput())
	fmt.Printf("  staleness           mean %.2f, p95 %d, max %d\n",
		result.MeanStaleness(), result.StalenessQuantile(0.95), result.MaxStaleness())
	for w, wait := range result.Waits {
		fmt.Printf("  worker %d (%s) waited %s\n", w, spec.Workers[w].Name, wait.Round(time.Second))
	}
	fmt.Println("  accuracy curve:")
	for _, pt := range curve.Points() {
		fmt.Printf("    %8.0fs  %.4f\n", pt.Elapsed.Seconds(), pt.Value)
	}
	return nil
}
