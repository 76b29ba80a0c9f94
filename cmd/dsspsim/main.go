// Command dsspsim runs one ad-hoc cluster simulation: a chosen model and
// paradigm on either the homogeneous P100 cluster (-workers sizes it, 4 by
// default) or the heterogeneous GTX1080Ti+GTX1060 cluster, reporting
// throughput, staleness and waiting-time statistics and the simulated
// accuracy curve.
//
// Example:
//
//	dsspsim -model resnet-110 -cluster het -paradigm DSSP -epochs 100
//
// Experiment mode: -experiment swaps the single simulation for the
// robustness scenario matrix (internal/experiment) — real training runs
// crossing {clean, 1-of-4 gradient-scale attacker} with {plain sum,
// trimmed-mean+guard}, plus a simulated hostile-network timing sweep of the
// chosen paradigm. The aggregate detection/robustness table prints to
// stdout, -out writes the JSON report, -trials sets runs per cell, and
// -accuracy-floor makes the process exit nonzero when any cell that should
// converge (every cell except the deliberately undefended attacked one)
// falls below the floor — the CI smoke gate.
//
// A flag the chosen mode does not read is refused by name: -model,
// -cluster, -workers and -epochs under -experiment; -trials, -out and
// -accuracy-floor without it; -workers with -cluster het.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"time"

	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/experiment"
	"dssp/internal/nn"
	"dssp/internal/simulate"
	"dssp/internal/trainer"
)

// options is one parsed command line.
type options struct {
	model, cluster, paradigm, out           string
	workers, epochs, staleness, rng, trials int
	enforce, experiment                     bool
	seed                                    int64
	accFloor                                float64
}

func main() {
	o, err := parse(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		os.Exit(2)
	case o.experiment:
		err = runExperiment(os.Stdout, o)
	default:
		err = run(os.Stdout, o)
	}
	if err != nil {
		log.Fatalf("dsspsim: %v", err)
	}
}

// parse reads a command line and refuses, by name, a flag the chosen mode
// does not read. Refusals are written to out.
func parse(args []string, out io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("dsspsim", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.model, "model", "resnet-110", "model: alexnet-small, resnet-50, resnet-110")
	fs.StringVar(&o.cluster, "cluster", "hom", "cluster: hom (4xP100) or het (GTX1080Ti+GTX1060)")
	fs.IntVar(&o.workers, "workers", 4, "worker count for the homogeneous cluster")
	fs.StringVar(&o.paradigm, "paradigm", "DSSP", "paradigm: BSP, ASP, SSP, DSSP")
	fs.IntVar(&o.staleness, "staleness", 3, "SSP threshold / DSSP lower bound")
	fs.IntVar(&o.rng, "range", 12, "DSSP range r")
	fs.BoolVar(&o.enforce, "enforce-bound", false, "DSSP Theorem-2 mode")
	fs.IntVar(&o.epochs, "epochs", 100, "training epochs to simulate")
	fs.Int64Var(&o.seed, "seed", 1, "jitter seed")
	fs.BoolVar(&o.experiment, "experiment", false, "run the robustness scenario matrix instead of a single simulation")
	fs.IntVar(&o.trials, "trials", 1, "experiment mode: training runs per matrix cell")
	fs.StringVar(&o.out, "out", "", "experiment mode: write the JSON report to this file")
	fs.Float64Var(&o.accFloor, "accuracy-floor", 0, "experiment mode: exit 1 if any cell expected to converge falls below this accuracy")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	// Only the single run reads -model, -cluster, -workers and -epochs, only
	// -experiment reads -trials, -out and -accuracy-floor; both read the rest.
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case o.experiment && slices.Contains([]string{"model", "cluster", "workers", "epochs"}, f.Name):
			err = fmt.Errorf("-%s is not read with -experiment", f.Name)
		case !o.experiment && slices.Contains([]string{"trials", "out", "accuracy-floor"}, f.Name):
			err = fmt.Errorf("-%s is read only with -experiment", f.Name)
		case f.Name == "workers" && o.cluster == "het":
			err = fmt.Errorf("-workers is not read with -cluster het, whose two workers are fixed")
		}
	})
	if err != nil {
		fmt.Fprintf(out, "dsspsim: %v\n", err)
	}
	return o, err
}

// policy is the paradigm the command line names.
func (o options) policy() (core.PolicyConfig, error) {
	p, err := core.ParseParadigm(o.paradigm)
	return core.PolicyConfig{Paradigm: p, Staleness: o.staleness, Range: o.rng, EnforceBound: o.enforce}, err
}

// runExperiment executes the scenario matrix: the 2x2 robustness grid on
// real training plus the simulated hostile-network timing sweep.
func runExperiment(w io.Writer, o options) error {
	policy, err := o.policy()
	if err != nil {
		return err
	}
	report, err := experiment.Run(experiment.ScenarioConfig{
		Name:   fmt.Sprintf("robustness matrix (%s)", policy.Describe()),
		Base:   experimentBase(policy, o.seed),
		Trials: o.trials,
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
		Trials:   o.trials,
		Seed:     o.seed,
	})
	if err != nil {
		return err
	}

	fmt.Fprint(w, report.Table())
	if o.out != "" {
		raw, err := report.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "report written to %s\n", o.out)
	}

	if o.accFloor > 0 {
		// Every cell except the deliberately undefended attacked one must
		// clear the floor: the clean cells prove training works, the
		// defended attacked cell proves the defense does.
		for _, c := range report.Cells {
			sacrificial := c.Attackers > 0 && c.Defense == experiment.SumDefense().Name
			if !sacrificial && c.MeanAccuracy < o.accFloor {
				return fmt.Errorf("cell (%s, %s) accuracy %.4f below floor %.4f", c.Attack, c.Defense, c.MeanAccuracy, o.accFloor)
			}
		}
		fmt.Fprintf(w, "all convergent cells above accuracy floor %.2f\n", o.accFloor)
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
	idx := make([]int, 176)
	for i := range idx {
		idx[i] = i
	}
	return trainer.Config{
		Model:        nn.SpecSmallMLP(12, 16, 3),
		Train:        full.Subset(idx[:128]),
		Test:         full.Subset(idx[128:]),
		Workers:      4,
		BatchSize:    8,
		Epochs:       6,
		Policy:       policy,
		LearningRate: 0.1,
		Seed:         seed,
	}
}

// run executes one simulation and writes its report.
func run(w io.Writer, o options) error {
	var profile simulate.ModelProfile
	switch o.model {
	case "alexnet-small":
		profile = simulate.ModelAlexNetSmall
	case "resnet-50":
		profile = simulate.ModelResNet50
	case "resnet-110":
		profile = simulate.ModelResNet110
	default:
		return fmt.Errorf("unknown model %q (use alexnet-small, resnet-50 or resnet-110)", o.model)
	}
	var spec simulate.ClusterSpec
	switch o.cluster {
	case "hom":
		spec = simulate.HomogeneousCluster(o.workers)
	case "het":
		spec = simulate.HeterogeneousCluster()
	default:
		return fmt.Errorf("unknown cluster %q (use hom or het)", o.cluster)
	}
	policy, err := o.policy()
	if err != nil {
		return err
	}

	iters := simulate.PaperEpochIterations(o.epochs, spec.NumWorkers())
	result, err := simulate.Run(simulate.RunConfig{
		Model:               profile,
		Cluster:             spec,
		Policy:              policy,
		IterationsPerWorker: iters,
		Seed:                o.seed,
	})
	if err != nil {
		return err
	}
	curve := simulate.AccuracyCurve(profile.Convergence, result, iters*spec.NumWorkers(), 20)

	fmt.Fprintf(w, "model %s on %s, %s, %d epochs (%d iterations/worker)\n",
		profile.Name, spec.Name, policy.Describe(), o.epochs, iters)
	fmt.Fprintf(w, "  completed in        %s\n", result.Finish.Round(time.Second))
	fmt.Fprintf(w, "  updates applied     %d (%.1f/s)\n", len(result.Updates), result.Throughput())
	fmt.Fprintf(w, "  staleness           mean %.2f, p95 %d, max %d\n",
		result.MeanStaleness(), result.StalenessQuantile(0.95), result.MaxStaleness())
	for i, wait := range result.Waits {
		fmt.Fprintf(w, "  worker %d (%s) waited %s\n", i, spec.Workers[i].Name, wait.Round(time.Second))
	}
	fmt.Fprintln(w, "  accuracy curve:")
	for _, pt := range curve.Points() {
		fmt.Fprintf(w, "    %8.0fs  %.4f\n", pt.Elapsed.Seconds(), pt.Value)
	}
	return nil
}
