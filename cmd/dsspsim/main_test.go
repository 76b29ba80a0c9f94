package main

import (
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

// TestReportGolden pins each mode's printed report bit for bit through its
// command line, so a change to the simulator's event path, or to how the
// figures are declared, run or printed, cannot move a number unseen. Each
// golden is the report's FNV-1a hash: run's covers finish time, update
// count and throughput, mean, p95 and max staleness, each worker's wait and
// the accuracy curve; all's covers Figure 2, every curve of Figures 3a-3f
// and 4 as printed, Table I and the §V-C trends.
func TestReportGolden(t *testing.T) {
	for _, tc := range []struct {
		name, args string
		golden     uint64
	}{
		{"run", "-model resnet-110 -cluster het -paradigm DSSP -epochs 20 -seed 1 -points 20", 0x36afd8e6484a8e79},
		{"all", "-exp all -epochs 20 -seed 1 -points 25", 0xc39835ce56682216},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parse(strings.Fields(tc.args), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			if err := run(h, o); err != nil {
				t.Fatal(err)
			}
			if got := h.Sum64(); got != tc.golden {
				t.Fatalf("report hash %#x, want %#x", got, tc.golden)
			}
		})
	}
}

// TestRefusesFlagsTheModeDoesNotRead holds that a flag the chosen mode
// ignores is refused by name rather than silently dropped, and that the
// shipped command lines parse.
func TestRefusesFlagsTheModeDoesNotRead(t *testing.T) {
	for _, tc := range []struct {
		args, refused string
	}{
		{"-model resnet-110 -cluster het -paradigm DSSP -epochs 100", ""},
		{"-exp matrix -paradigm SSP -trials 2 -accuracy-floor 0.6 -out report.json", ""},
		{"-cluster hom -workers 8 -epochs 5 -points 10", ""},
		{"-exp fig4", ""},
		{"-exp all -epochs 20 -seed 1 -points 25", ""},
		{"-exp table1 -epochs 40", ""},
		{"-exp fig2", ""},
		{"-cluster het -workers 8", "-workers"},
		{"-exp matrix -model resnet-50", "-model"},
		{"-exp matrix -cluster het", "-cluster"},
		{"-exp matrix -workers 8", "-workers"},
		{"-exp matrix -epochs 5", "-epochs"},
		{"-exp matrix -points 5", "-points"},
		{"-trials 2", "-trials"},
		{"-out report.json", "-out"},
		{"-accuracy-floor 0.6", "-accuracy-floor"},
		{"-exp run -trials 2", "-trials"},
		{"-exp fig3a -paradigm SSP", "-paradigm"},
		{"-exp trends -staleness 6", "-staleness"},
		{"-exp table1 -range 4", "-range"},
		{"-exp all -enforce-bound", "-enforce-bound"},
		{"-exp fig4 -model resnet-50", "-model"},
		{"-exp all -trials 2", "-trials"},
		{"-exp fig3f -out report.json", "-out"},
		{"-exp fig2 -epochs 20", "-epochs"},
		{"-exp fig2 -seed 2", "-seed"},
		{"-exp fig2 -points 5", "-points"},
	} {
		var out strings.Builder
		_, err := parse(strings.Fields(tc.args), &out)
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.refused != "" && err == nil:
			t.Errorf("%q was accepted, want %s refused", tc.args, tc.refused)
		case tc.refused != "" && (!strings.Contains(err.Error(), tc.refused+" ") || !strings.Contains(out.String(), tc.refused+" ")):
			t.Errorf("%q: refusal %q (printed %q) does not name %s", tc.args, err, out.String(), tc.refused)
		}
	}
}

// TestUnknownExperimentListsEveryValue holds that a mistyped -exp is refused
// naming every value the flag accepts, not only the figure ids.
func TestUnknownExperimentListsEveryValue(t *testing.T) {
	var out strings.Builder
	_, err := parse([]string{"-exp", "fig9"}, &out)
	if err == nil {
		t.Fatal("parse accepted -exp fig9")
	}
	for _, want := range []string{"run", "matrix", "fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig4", "table1", "trends", "all"} {
		if !strings.Contains(err.Error(), want) || !strings.Contains(out.String(), want) {
			t.Errorf("refusal %q (printed %q) does not name %q", err, out.String(), want)
		}
	}
}

// TestUnknownModelListsEveryModel holds that a mistyped -model names every
// value the flag accepts.
func TestUnknownModelListsEveryModel(t *testing.T) {
	o, err := parse([]string{"-model", "resnet-18", "-epochs", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	err = run(io.Discard, o)
	if err == nil {
		t.Fatal("run accepted -model resnet-18")
	}
	for _, want := range []string{"alexnet-small", "resnet-50", "resnet-110"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
