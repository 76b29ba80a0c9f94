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
		fmt.Fprintf(&b, "%-18s %-16s %12s %10s %10s\n", "scenario", "paradigm", "finish", "upd/s", "staleness")
		for _, c := range r.Timing {
			fmt.Fprintf(&b, "%-18s %-16s %12s %10.1f %10.2f\n",
				c.Scenario, c.Paradigm, c.MeanFinish.Round(timePrecision), c.Throughput, c.MeanStaleness)
		}
	}
	return b.String()
}
