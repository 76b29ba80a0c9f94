// Command dsspsim is the cluster simulator's command: -exp picks what it
// runs and prints.
//
//   - run (the default) simulates one chosen model and paradigm on either
//     the homogeneous P100 cluster (-workers sizes it, 4 by default) or the
//     heterogeneous GTX1080Ti+GTX1060 cluster, reporting throughput,
//     staleness and waiting-time statistics and the simulated accuracy
//     curve (-points samples).
//   - matrix runs the robustness scenario matrix (internal/experiment) —
//     real training runs crossing {clean, 1-of-4 gradient-scale attacker}
//     with {plain sum, trimmed-mean+guard}, plus a simulated hostile-network
//     timing sweep of the chosen paradigm. The aggregate detection/robustness
//     table prints to stdout, -out writes the JSON report, -trials sets runs
//     per cell, and -accuracy-floor makes the process exit nonzero when any
//     cell that should converge (every cell except the deliberately
//     undefended attacked one) falls below the floor — the CI smoke gate.
//   - fig2, fig3a..fig3f, fig4, table1 and trends regenerate the paper's
//     evaluation (Figures 2-4, Table I and the §V-C throughput-trend
//     analysis) and print the series and tables as text; all prints every
//     one of them.
//
// Examples:
//
//	dsspsim -model resnet-110 -cluster het -paradigm DSSP -epochs 100
//	dsspsim -exp fig3a                 # one figure at the paper's 300 epochs
//	dsspsim -exp all -epochs 60        # the whole evaluation, faster
//
// A flag the chosen mode does not read is refused by name: -model,
// -cluster and -workers outside run; -paradigm, -staleness, -range and
// -enforce-bound outside run and matrix; -epochs and -points under matrix;
// -trials, -out and -accuracy-floor outside matrix; every flag but -exp under
// fig2; -workers with -cluster het.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
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
	exp, model, cluster, paradigm, out              string
	workers, epochs, points, staleness, rng, trials int
	enforce                                         bool
	seed                                            int64
	accFloor                                        float64
}

func main() {
	o, err := parse(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		log.Fatalf("dsspsim: %v", err)
	}
}

// reports lists the paper's reports -exp all prints, in report order.
func reports() []string {
	return slices.Concat([]string{"fig2"}, simulate.FigureIDs(), []string{"table1", "trends"})
}

// reads lists the flags each mode reads besides -exp. A paper report reads
// what all does, but for fig2, which reads none.
var reads = map[string][]string{
	"run":    {"model", "cluster", "workers", "paradigm", "staleness", "range", "enforce-bound", "epochs", "points", "seed"},
	"matrix": {"paradigm", "staleness", "range", "enforce-bound", "seed", "trials", "out", "accuracy-floor"},
	"all":    {"epochs", "points", "seed"},
	"fig2":   nil,
}

// parse reads a command line and refuses an unknown -exp and, by name, a
// flag the chosen mode does not read. Refusals are written to out.
func parse(args []string, out io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("dsspsim", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.exp, "exp", "run", "mode: run, matrix, or a paper report: "+strings.Join(reports(), ", ")+", all")
	fs.StringVar(&o.model, "model", "resnet-110", "run: model: alexnet-small, resnet-50, resnet-110")
	fs.StringVar(&o.cluster, "cluster", "hom", "run: cluster: hom (4xP100) or het (GTX1080Ti+GTX1060)")
	fs.IntVar(&o.workers, "workers", 4, "run: worker count for the homogeneous cluster")
	fs.StringVar(&o.paradigm, "paradigm", "DSSP", "run, matrix: paradigm: BSP, ASP, SSP, DSSP")
	fs.IntVar(&o.staleness, "staleness", 3, "run, matrix: SSP threshold / DSSP lower bound")
	fs.IntVar(&o.rng, "range", 12, "run, matrix: DSSP range r")
	fs.BoolVar(&o.enforce, "enforce-bound", false, "run, matrix: DSSP Theorem-2 mode")
	fs.IntVar(&o.epochs, "epochs", 300, "run, reports: training epochs to simulate")
	fs.IntVar(&o.points, "points", 25, "run, reports: samples per printed accuracy curve")
	fs.Int64Var(&o.seed, "seed", 1, "jitter seed")
	fs.IntVar(&o.trials, "trials", 1, "matrix: training runs per matrix cell")
	fs.StringVar(&o.out, "out", "", "matrix: write the JSON report to this file")
	fs.Float64Var(&o.accFloor, "accuracy-floor", 0, "matrix: exit 1 if any cell expected to converge falls below this accuracy")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	mode := o.exp
	if mode != "fig2" && slices.Contains(reports(), mode) {
		mode = "all"
	}
	read, known := reads[mode]
	var err error
	if !known {
		err = fmt.Errorf("unknown -exp %q (valid: run, matrix, %s, all)", o.exp, strings.Join(reports(), ", "))
	}
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case f.Name != "exp" && !slices.Contains(read, f.Name):
			err = fmt.Errorf("-%s is not read with -exp %s", f.Name, o.exp)
		case f.Name == "workers" && o.cluster == "het":
			err = fmt.Errorf("-workers is not read with -cluster het, whose two workers are fixed")
		}
	})
	if err != nil {
		fmt.Fprintf(out, "dsspsim: %v\n", err)
	}
	return o, err
}

// run executes the mode o.exp names and writes its report to w.
func run(w io.Writer, o options) error {
	switch o.exp {
	case "run":
		return simulateOne(w, o)
	case "matrix":
		return runMatrix(w, o)
	}
	ids := []string{o.exp}
	if o.exp == "all" {
		ids = reports()
	}
	cfg := simulate.ExperimentConfig{Epochs: o.epochs, Seed: o.seed, Points: o.points}
	for _, id := range ids {
		if err := printReport(w, id, cfg); err != nil {
			return err
		}
	}
	return nil
}

// printReport prints the paper report id, one of reports().
func printReport(w io.Writer, id string, cfg simulate.ExperimentConfig) error {
	switch id {
	case "fig2":
		return printFigure2(w)
	case "table1":
		return printTableI(w, cfg)
	case "trends":
		return printTrends(w, cfg)
	default:
		return printFigure(w, id, cfg)
	}
}

// policy is the paradigm the command line names.
func (o options) policy() (core.PolicyConfig, error) {
	p, err := core.ParseParadigm(o.paradigm)
	return core.PolicyConfig{Paradigm: p, Staleness: o.staleness, Range: o.rng, EnforceBound: o.enforce}, err
}

// runMatrix executes the scenario matrix: the 2x2 robustness grid on real
// training plus the simulated hostile-network timing sweep.
func runMatrix(w io.Writer, o options) error {
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

// simulateOne executes one simulation and writes its report.
func simulateOne(w io.Writer, o options) error {
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
	curve := simulate.AccuracyCurve(profile.Convergence, result, iters*spec.NumWorkers(), o.points)

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

func printFigure(w io.Writer, id string, cfg simulate.ExperimentConfig) error {
	fig, err := simulate.RunFigure(id, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== %s: %s (%d epochs) ===\n", fig.ID, fig.Title, cfg.Epochs)
	for _, c := range fig.Results {
		fmt.Fprintf(w, "%-24s final accuracy %.4f", c.Label, c.FinalAccuracy)
		if c.Finish > 0 {
			fmt.Fprintf(w, ", completed in %s", c.Finish.Round(time.Second))
		}
		fmt.Fprintln(w)
		points := c.Curve.Points()
		fmt.Fprint(w, "  t(s):   ")
		for _, p := range points {
			fmt.Fprintf(w, "%8.0f", p.Elapsed.Seconds())
		}
		fmt.Fprint(w, "\n  acc:    ")
		for _, p := range points {
			fmt.Fprintf(w, "%8.3f", p.Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func printFigure2(w io.Writer) error {
	// The scenario of Figure 2: the fast worker iterates in 1s, the slow one
	// in 3.5s; the controller may allow up to 8 extra iterations.
	waits, selected, err := simulate.Figure2Waits(time.Second, 3500*time.Millisecond, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== fig2: predicted fast-worker waiting time per candidate r ===\n")
	fmt.Fprintf(w, "%-4s %-12s\n", "r", "wait")
	for r, wait := range waits {
		marker := ""
		if r == selected {
			marker = "  <- r* chosen by the synchronization controller"
		}
		fmt.Fprintf(w, "%-4d %-12s%s\n", r, wait.Round(10*time.Millisecond), marker)
	}
	return nil
}

func printTableI(w io.Writer, cfg simulate.ExperimentConfig) error {
	rows, err := simulate.TableI(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== Table I: time to reach target accuracy, ResNet-110 on the mixed GPU cluster (%d epochs) ===\n", cfg.Epochs)
	fmt.Fprintf(w, "%-18s %-18s %-18s\n", "Paradigm", "to 0.67 accuracy", "to 0.68 accuracy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-18s %-18s\n", r.Paradigm, formatTarget(r.To067, r.Reached067), formatTarget(r.To068, r.Reached068))
	}
	return nil
}

func formatTarget(d time.Duration, reached bool) string {
	if !reached {
		return "-"
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}

func printTrends(w io.Writer, cfg simulate.ExperimentConfig) error {
	trends, err := simulate.SectionVCThroughputTrends(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n=== §V-C: completion-time ordering per model (%d epochs) ===\n", cfg.Epochs)
	for _, tr := range trends {
		kind := "conv-only"
		if tr.HasFullyConnected {
			kind = "with fully connected layers"
		}
		fmt.Fprintf(w, "%s (%s):\n", tr.Model, kind)
		for _, label := range tr.Order {
			fmt.Fprintf(w, "  %-16s %s\n", label, tr.FinishTimes[label].Round(time.Second))
		}
	}
	return nil
}
