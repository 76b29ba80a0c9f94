package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// stat is one metric over a workload's repetitions.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only, see metricDef.boundOn
	Floor  float64 `json:"floor,omitempty"` // end-to-end only, see floors
}

func newStat(xs []float64, m metricDef) stat {
	lo, hi := minMax(xs)
	return stat{Median: median(xs), Min: lo, Max: hi, Q1: percentile(xs, 25), Q3: percentile(xs, 75),
		N: len(xs), Unit: m.Unit, Better: m.Better}
}

// workloadSummary is everything one workload reported.
type workloadSummary struct {
	Name      string          `json:"name"`
	Why       string          `json:"why"`
	Quota     [workers]int    `json:"quota"` // iterations per worker per repetition
	Attempted int             `json:"iters_attempted"`
	Failed    int             `json:"iters_failed"`
	Correct   bool            `json:"correct"`
	Failures  []string        `json:"failures,omitempty"`
	Untrusted []string        `json:"untrusted,omitempty"`
	TailPct   float64         `json:"tail_percentile,omitempty"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

// summary is the machine-readable form of a whole run (-out).
type summary struct {
	Nproc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Workloads  []workloadSummary `json:"workloads"`
}

// contractValue is one metric of the result line.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the last line of standard output.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// contractLine flattens the summary into the result line. With one workload
// the metric names are bare; with several each is prefixed "workload/".
func (s summary) contractLine() contractResult {
	line := contractResult{Correct: true, Metrics: make(map[string]contractValue)}
	for _, ws := range s.Workloads {
		line.Correct = line.Correct && ws.Correct
		line.Attempted += ws.Attempted
		line.Failed += ws.Failed
		prefix := ""
		if len(s.Workloads) > 1 {
			prefix = ws.Name + "/"
		}
		for _, group := range []map[string]stat{ws.EndToEnd, ws.PerLayer} {
			for name, st := range group {
				line.Metrics[prefix+name] = contractValue{st.Median, st.Unit}
			}
		}
	}
	return line
}

// printWorkload writes the human table: every metric by name with its unit,
// median, range and sample count, then the layer budget of one iteration.
func printWorkload(w io.Writer, ws workloadSummary) {
	fmt.Fprintf(w, "\n== %s — %s\n", ws.Name, ws.Why)
	fmt.Fprintf(w, "   quota %d + %d iterations per repetition; attempted %d, failed %d\n",
		ws.Quota[0], ws.Quota[1], ws.Attempted, ws.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(name string, st stat) {
		fmt.Fprintf(tw, "   %s\t%s\t%.6g\t%.6g – %.6g\tn=%d\n", name, st.Unit, st.Median, st.Min, st.Max, st.N)
	}
	if ws.EndToEnd != nil {
		fmt.Fprintf(tw, "   end to end\tunit\tmedian\tmin – max\t\n")
		for _, m := range endToEnd {
			row(m.Name, ws.EndToEnd[m.Name])
		}
	}
	if ws.PerLayer != nil {
		fmt.Fprintf(tw, "   per layer\tunit\tvalue\t\t\n")
		for _, m := range perLayer {
			name := m.Name
			if strings.HasSuffix(name, "_p99") && ws.TailPct != 99 {
				name = fmt.Sprintf("%s (p%.0f: too few samples)", name, ws.TailPct)
			}
			row(name, ws.PerLayer[m.Name])
		}
	}
	tw.Flush()
	if ws.PerLayer != nil {
		iter := ws.PerLayer["dssp.iter_ms_mean"].Median
		fmt.Fprintf(w, "   one iteration, %.4f ms mean wall clock:\n", iter)
		sum := 0.0
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, name := range budgetRows {
			v := ws.PerLayer[name].Median
			sum += v
			fmt.Fprintf(tw, "     %s\t%.4f ms\t%5.1f%%\n", name, v, 100*v/iter)
		}
		fmt.Fprintf(tw, "     sum\t%.4f ms\t%5.1f%%\n", sum, 100*sum/iter)
		fmt.Fprintf(tw, "     of pull + push_wait, ps.rpc_residual_ms\t%.4f ms\t%5.1f%%\n",
			ws.PerLayer["ps.rpc_residual_ms"].Median, 100*ws.PerLayer["ps.rpc_residual_ms"].Median/iter)
		tw.Flush()
	}
	for _, u := range ws.Untrusted {
		fmt.Fprintf(w, "   UNTRUSTED layer table: %s\n", u)
	}
	for _, f := range ws.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

// Verdicts of -compare.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// tolerance is how much worse than a the other run's median may be, as a
// share of a's median: the bound, or the metric's absolute floor where that
// is the larger (setup_s on a set-up of a tenth of a second).
func tolerance(a stat) float64 {
	return math.Max(a.Bound, a.Floor/math.Abs(a.Median))
}

// verdict judges one end-to-end metric of run b against run a. change is how
// much worse b's median is, as a share of a's (negative = better). spread is
// the wider of the two runs' own interquartile ranges over their medians;
// when it exceeds the tolerance the pair cannot resolve a regression of that
// size and is reported as such, not as unchanged.
func verdict(a, b stat) (change, spread float64, v string) {
	if a.Median == 0 {
		return 0, 0, verdictUnresolved
	}
	change = (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		change = -change
	}
	rel := func(s stat) float64 {
		if s.Median == 0 {
			return math.Inf(1)
		}
		return (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	spread = math.Max(rel(a), rel(b))
	switch tol := tolerance(a); {
	case spread > tol:
		return change, spread, verdictUnresolved
	case change > tol:
		return change, spread, verdictWorse
	}
	return change, spread, verdictWithin
}

func readSummary(path string) (summary, error) {
	var s summary
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareMain prints, per (workload, end-to-end metric), how run b moved
// against run a and its bound. It exits 1 when any pair is worse.
func compareMain(pathA, pathB string) int {
	a, err := readSummary(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readSummary(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(os.Stderr, "bench: %s ran -seed %d -seconds %d, %s -seed %d -seconds %d: compare like with like\n",
			pathA, a.Seed, a.Seconds, pathB, b.Seed, b.Seconds)
		return 2
	}
	byName := make(map[string]workloadSummary)
	for _, ws := range b.Workloads {
		byName[ws.Name] = ws
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta\tb\tworse by\tbound\tspread\tverdict\n")
	worse := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			change, spread, v := verdict(sa, sb)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.1f%%\t%.2f%%\t%s\n",
				wa.Name, m.Name, sa.Median, sb.Median, 100*change, 100*tolerance(sa), 100*spread, v)
		}
	}
	tw.Flush()
	if worse > 0 {
		return 1
	}
	return 0
}
