package experiment

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Cell is one aggregated (attack, defense) grid cell.
type Cell struct {
	// Attack and Defense name the cell's matrix coordinates.
	Attack  string `json:"attack"`
	Defense string `json:"defense"`
	// Attackers is how many worker slots the attack controls.
	Attackers int `json:"attackers"`
	// MeanAccuracy and MinAccuracy summarize final model accuracy over the
	// cell's trials.
	MeanAccuracy float64 `json:"mean_accuracy"`
	MinAccuracy  float64 `json:"min_accuracy"`
	// MeanDropped is the mean number of pushes the guard rejected per
	// trial.
	MeanDropped float64 `json:"mean_dropped"`
	// MeanEvictions is the mean number of guard evictions per trial.
	MeanEvictions float64 `json:"mean_evictions"`
	// TPR is the attacker detection rate: the fraction of attacker slots
	// the guard flagged, averaged over trials. FPR is the same fraction
	// over honest slots — the false-alarm rate.
	TPR float64 `json:"tpr"`
	FPR float64 `json:"fpr"`
	// Pipeline is the server-side observability snapshot averaged over the
	// cell's trials: every registry series (counters and gauges by name,
	// histograms as _sum/_count; see docs/METRICS.md) as reported by
	// trainer.Result.Metrics. JSON only — too wide for the text table.
	Pipeline map[string]float64 `json:"pipeline,omitempty"`

	// Accumulators (reset by finalize into the rates above).
	tpHits, tpSlots int
	fpHits, fpSlots int
}

// Report is a completed scenario matrix.
type Report struct {
	// Name titles the matrix.
	Name string `json:"name"`
	// Trials is the number of runs behind each cell.
	Trials int `json:"trials"`
	// Cells holds every grid cell in attack-major order.
	Cells []Cell `json:"cells"`
	// Timing holds the simulator-backed cells, when a timing matrix ran.
	Timing []TimingCell `json:"timing,omitempty"`
}

// Cell returns the cell at the named coordinates.
func (r *Report) Cell(attack, defense string) (Cell, bool) {
	for _, c := range r.Cells {
		if c.Attack == attack && c.Defense == defense {
			return c, true
		}
	}
	return Cell{}, false
}

// MinAccuracyOver reports the lowest mean accuracy across cells matching
// the filter (empty strings match everything) — the floor a smoke gate
// checks against.
func (r *Report) MinAccuracyOver(attack, defense string) float64 {
	low := 1.0
	for _, c := range r.Cells {
		if attack != "" && c.Attack != attack {
			continue
		}
		if defense != "" && c.Defense != defense {
			continue
		}
		if c.MeanAccuracy < low {
			low = c.MeanAccuracy
		}
	}
	return low
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the detection/robustness table as aligned text.
func (r *Report) Table() string {
	var b strings.Builder
	if r.Name != "" {
		fmt.Fprintf(&b, "%s (%d trial(s)/cell)\n", r.Name, r.Trials)
	}
	fmt.Fprintf(&b, "%-18s %-18s %9s %9s %9s %8s %6s %6s\n",
		"attack", "defense", "acc", "min-acc", "dropped", "evicted", "tpr", "fpr")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %-18s %9.4f %9.4f %9.1f %8.1f %6.2f %6.2f\n",
			c.Attack, c.Defense, c.MeanAccuracy, c.MinAccuracy, c.MeanDropped, c.MeanEvictions, c.TPR, c.FPR)
	}
	if len(r.Timing) > 0 {
		b.WriteString("\ntiming (simulated)\n")
		fmt.Fprintf(&b, "%-18s %-16s %6s %12s %10s %10s %11s %11s\n",
			"scenario", "paradigm", "fanout", "finish", "upd/s", "staleness", "root-frames", "root-MiB")
		for _, c := range r.Timing {
			topo := "flat"
			if c.Fanout >= 2 {
				topo = fmt.Sprintf("%d", c.Fanout)
			}
			fmt.Fprintf(&b, "%-18s %-16s %6s %12s %10.1f %10.2f %11.0f %11.1f\n",
				c.Scenario, c.Paradigm, topo, c.MeanFinish.Round(timePrecision), c.Throughput,
				c.MeanStaleness, c.MeanRootFrames, c.MeanRootBytes/(1<<20))
		}
	}
	return b.String()
}
