// Command dsspbench regenerates the paper's evaluation (Figures 2-4, Table I,
// and the §V-C throughput-trend analysis) on the built-in cluster simulator
// and prints the resulting series and tables as text.
//
// Examples:
//
//	dsspbench -exp fig3a                 # one figure at the paper's 300 epochs
//	dsspbench -exp all -epochs 60        # everything, faster
//	dsspbench -exp table1                # Table I only
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"dssp"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: fig2, fig3a..fig3f, fig4, table1, trends, all")
		epochs = flag.Int("epochs", 300, "number of simulated training epochs")
		seed   = flag.Int64("seed", 1, "simulation seed")
		points = flag.Int("points", 25, "samples per printed curve")
	)
	flag.Parse()

	cfg := dssp.SimulationConfig{Epochs: *epochs, Seed: *seed, Points: *points}
	if err := run(os.Stdout, *exp, cfg); err != nil {
		log.Fatalf("dsspbench: %v", err)
	}
}

// reports lists the -exp values -exp all runs, in report order.
func reports() []string {
	return slices.Concat([]string{"fig2"}, dssp.FigureIDs(), []string{"table1", "trends"})
}

// run executes the selected experiment(s) and writes a textual report.
func run(w io.Writer, exp string, cfg dssp.SimulationConfig) error {
	switch exp {
	case "all":
		for _, id := range reports() {
			if err := run(w, id, cfg); err != nil {
				return err
			}
		}
		return nil
	case "fig2":
		return printFigure2(w)
	case "table1":
		return printTableI(w, cfg)
	case "trends":
		return printTrends(w, cfg)
	default:
		if !slices.Contains(dssp.FigureIDs(), strings.ToLower(exp)) {
			return fmt.Errorf("unknown experiment %q (valid: %s, all)", exp, strings.Join(reports(), ", "))
		}
		return printFigure(w, exp, cfg)
	}
}

func printFigure(w io.Writer, id string, cfg dssp.SimulationConfig) error {
	fig, err := dssp.Figure(id, cfg)
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
	waits, selected, err := dssp.PredictionCurve(time.Second, 3500*time.Millisecond, 8)
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

func printTableI(w io.Writer, cfg dssp.SimulationConfig) error {
	rows, err := dssp.TableI(cfg)
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

func printTrends(w io.Writer, cfg dssp.SimulationConfig) error {
	trends, err := dssp.ThroughputTrends(cfg)
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
