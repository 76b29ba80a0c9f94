package main

import (
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"dssp"
)

// reportGolden is the FNV-1a hash of the whole `dsspbench -exp all -epochs 20
// -seed 1 -points 25` report: Figure 2, every curve of Figures 3a-3f and 4 as
// printed, Table I and the §V-C trends.
const reportGolden = 0xc39835ce56682216

// TestReportGolden pins the printed evaluation bit for bit, so a change to
// how the figures are declared, run or printed cannot move a number unseen.
func TestReportGolden(t *testing.T) {
	h := fnv.New64a()
	if err := run(h, "all", dssp.SimulationConfig{Epochs: 20, Seed: 1, Points: 25}); err != nil {
		t.Fatal(err)
	}
	if got := h.Sum64(); got != reportGolden {
		t.Fatalf("report hash %#x, want %#x", got, uint64(reportGolden))
	}
}

// TestUnknownExperimentListsEveryValue holds that a mistyped -exp names every
// value the flag accepts, not only the figure ids.
func TestUnknownExperimentListsEveryValue(t *testing.T) {
	err := run(io.Discard, "fig9", dssp.SimulationConfig{Epochs: 1})
	if err == nil {
		t.Fatal("run accepted -exp fig9")
	}
	for _, want := range []string{"fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig4", "table1", "trends", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
