package main

import (
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

// reportGolden is the FNV-1a hash of the whole `dsspsim -model resnet-110
// -cluster het -paradigm DSSP -epochs 20 -seed 1` report: finish time,
// update count and throughput, mean, p95 and max staleness, each worker's
// wait and the accuracy curve.
const reportGolden = 0x36afd8e6484a8e79

// TestReportGolden pins the single-run report bit for bit, so a change to the
// simulator's event path cannot move a number unseen.
func TestReportGolden(t *testing.T) {
	o, err := parse(strings.Fields("-model resnet-110 -cluster het -paradigm DSSP -epochs 20 -seed 1"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if err := run(h, o); err != nil {
		t.Fatal(err)
	}
	if got := h.Sum64(); got != reportGolden {
		t.Fatalf("report hash %#x, want %#x", got, uint64(reportGolden))
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
		{"-experiment -paradigm SSP -trials 2 -accuracy-floor 0.6 -out report.json", ""},
		{"-cluster hom -workers 8 -epochs 5", ""},
		{"-cluster het -workers 8", "-workers"},
		{"-experiment -model resnet-50", "-model"},
		{"-experiment -cluster het", "-cluster"},
		{"-experiment -workers 8", "-workers"},
		{"-experiment -epochs 5", "-epochs"},
		{"-trials 2", "-trials"},
		{"-out report.json", "-out"},
		{"-accuracy-floor 0.6", "-accuracy-floor"},
		{"-experiment=false -trials 2", "-trials"},
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
