package simulate

import (
	"testing"
	"time"
)

// shortCfg keeps experiment tests fast; the curve shapes are scale-invariant
// in the number of epochs.
func shortCfg() ExperimentConfig {
	return ExperimentConfig{Epochs: 30, Seed: 1, Points: 50}
}

// timeToAccuracy returns, per curve, the first simulated time at which the
// target accuracy was reached; curves that never reach it are omitted.
func timeToAccuracy(fig *Figure, target float64) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, r := range fig.Results {
		if d, ok := r.Curve.TimeToReach(target); ok {
			out[r.Label] = d
		}
	}
	return out
}

// result returns fig's curve labelled label, failing tb when it has none.
func result(tb testing.TB, fig *Figure, label string) ParadigmResult {
	tb.Helper()
	for _, r := range fig.Results {
		if r.Label == label {
			return r
		}
	}
	tb.Fatalf("%s has no curve %q", fig.ID, label)
	return ParadigmResult{}
}

func TestFigure3aShape(t *testing.T) {
	if ids := FigureIDs(); len(ids) != 7 {
		t.Fatalf("expected 7 figure ids, got %v", ids)
	}
	if _, err := RunFigure("fig99", shortCfg()); err == nil {
		t.Fatal("expected error for unknown figure id")
	}
	fig, err := RunFigure("fig3a", shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig3a" || len(fig.Results) != 4 {
		t.Fatalf("unexpected figure %q with %d curves", fig.ID, len(fig.Results))
	}
	bsp := result(t, fig, "BSP")
	asp := result(t, fig, "ASP")
	dssp := result(t, fig, "DSSP s=3 r=12")
	avg := result(t, fig, "Average SSP s=3 to 15")
	if bsp.Curve == nil || asp.Curve == nil || dssp.Curve == nil || avg.Curve == nil {
		t.Fatal("missing curves")
	}

	// Paper: BSP is the slowest to complete 300 epochs on the FC-heavy model.
	if bsp.Finish <= asp.Run.Finish {
		t.Fatalf("BSP finish %v should exceed ASP finish %v", bsp.Finish, asp.Run.Finish)
	}
	// Paper: ASP converges to the lowest accuracy of the four paradigms.
	if asp.FinalAccuracy >= dssp.FinalAccuracy || asp.FinalAccuracy >= bsp.FinalAccuracy {
		t.Fatalf("ASP final accuracy %v should be the lowest (DSSP %v, BSP %v)",
			asp.FinalAccuracy, dssp.FinalAccuracy, bsp.FinalAccuracy)
	}
	// Paper: DSSP/SSP/ASP converge much faster than BSP to mid-range
	// accuracy; compare time to reach 0.55.
	tt := timeToAccuracy(fig, 0.55)
	if _, ok := tt["DSSP s=3 r=12"]; !ok {
		t.Fatal("DSSP never reached 0.55")
	}
	if tt["DSSP s=3 r=12"] >= tt["BSP"] {
		t.Fatalf("DSSP should reach 0.55 before BSP: %v vs %v", tt["DSSP s=3 r=12"], tt["BSP"])
	}
	// Paper: DSSP at least matches the averaged SSP.
	if dssp.FinalAccuracy+1e-9 < avg.FinalAccuracy {
		t.Fatalf("DSSP final accuracy %v below averaged SSP %v", dssp.FinalAccuracy, avg.FinalAccuracy)
	}
}

func TestFigure3bDSSPCompetitiveWithSSPSweep(t *testing.T) {
	fig, err := RunFigure("fig3b", shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Results) != 14 { // SSP s=3..15 plus DSSP
		t.Fatalf("expected 14 curves, got %d", len(fig.Results))
	}
	dssp := result(t, fig, "DSSP s=3 r=12")
	// DSSP's final accuracy must be at least as high as the majority of the
	// individual SSP thresholds (paper: higher than all but one).
	better := 0
	for _, r := range fig.Results {
		if r.Label == dssp.Label {
			continue
		}
		if dssp.FinalAccuracy+1e-9 >= r.FinalAccuracy {
			better++
		}
	}
	if better < 7 {
		t.Fatalf("DSSP beats only %d of 13 SSP curves", better)
	}
}

func TestFigure3cdResNet50Shape(t *testing.T) {
	fig, err := RunFigure("fig3c", shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	bsp := result(t, fig, "BSP")
	asp := result(t, fig, "ASP")
	dssp := result(t, fig, "DSSP s=3 r=12")
	// Paper: on conv-only models BSP completes 300 epochs first...
	if bsp.Finish >= asp.Run.Finish {
		t.Fatalf("BSP finish %v should be before ASP finish %v", bsp.Finish, asp.Run.Finish)
	}
	// ...but converges to a lower accuracy than the staleness-tolerant
	// paradigms.
	if bsp.FinalAccuracy >= dssp.FinalAccuracy {
		t.Fatalf("BSP final accuracy %v should be below DSSP %v", bsp.FinalAccuracy, dssp.FinalAccuracy)
	}

	sweep, err := RunFigure("fig3d", shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != 14 {
		t.Fatalf("expected 14 curves in figure 3d, got %d", len(sweep.Results))
	}
}

func TestFigure3eResNet110Shape(t *testing.T) {
	fig, err := RunFigure("fig3e", shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	bsp := result(t, fig, "BSP")
	dssp := result(t, fig, "DSSP s=3 r=12")
	avg := result(t, fig, "Average SSP s=3 to 15")
	if bsp.FinalAccuracy >= dssp.FinalAccuracy {
		t.Fatalf("BSP final accuracy %v should be below DSSP %v", bsp.FinalAccuracy, dssp.FinalAccuracy)
	}
	if dssp.FinalAccuracy+1e-9 < avg.FinalAccuracy {
		t.Fatalf("DSSP %v should be at least the averaged SSP %v", dssp.FinalAccuracy, avg.FinalAccuracy)
	}
}

func TestFigure4HeterogeneousShape(t *testing.T) {
	fig, err := RunFigure("fig4", ExperimentConfig{Epochs: 40, Seed: 1, Points: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Results) != 6 {
		t.Fatalf("expected 6 curves, got %d", len(fig.Results))
	}
	// Pick a mid-range target every curve reaches and compare times: DSSP
	// must be far faster than every SSP threshold and BSP, and close to ASP
	// (paper Table I and Figure 4).
	tt := timeToAccuracy(fig, 0.60)
	for _, label := range []string{"BSP", "ASP", "SSP s=3", "SSP s=6", "SSP s=15", "DSSP s=3 r=12"} {
		if _, ok := tt[label]; !ok {
			t.Fatalf("curve %q never reached 0.60", label)
		}
	}
	dssp, asp := tt["DSSP s=3 r=12"], tt["ASP"]
	for _, label := range []string{"BSP", "SSP s=3", "SSP s=6", "SSP s=15"} {
		if float64(tt[label]) < 1.25*float64(dssp) {
			t.Fatalf("%s (%v) should be at least 25%% slower than DSSP (%v) to reach 0.60", label, tt[label], dssp)
		}
	}
	ratio := float64(dssp) / float64(asp)
	if ratio > 1.25 {
		t.Fatalf("DSSP (%v) should track ASP (%v) on the heterogeneous cluster", dssp, asp)
	}
}

func TestTableIRowsAndOrdering(t *testing.T) {
	rows, err := TableI(ExperimentConfig{Epochs: 40, Seed: 1, Points: 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(rows))
	}
	byLabel := map[string]TableIRow{}
	for _, r := range rows {
		byLabel[r.Paradigm] = r
	}
	for _, want := range []string{"BSP", "ASP", "SSP s=3", "SSP s=6", "SSP s=15", "DSSP s=3 r=12"} {
		if _, ok := byLabel[want]; !ok {
			t.Errorf("missing row %q", want)
		}
	}
	dssp := byLabel["DSSP s=3 r=12"]
	if !dssp.Reached067 {
		t.Fatal("DSSP should reach 0.67 accuracy")
	}
	for _, label := range []string{"SSP s=3", "SSP s=6", "SSP s=15", "BSP"} {
		row := byLabel[label]
		if row.Reached067 && row.To067 < dssp.To067 {
			t.Fatalf("%s reached 0.67 before DSSP (%v vs %v)", label, row.To067, dssp.To067)
		}
	}
}

func TestSectionVCThroughputTrends(t *testing.T) {
	trends, err := SectionVCThroughputTrends(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) != 3 {
		t.Fatalf("expected trends for 3 models, got %d", len(trends))
	}
	for _, tr := range trends {
		if len(tr.Order) != 4 {
			t.Errorf("%s: expected 4 ordered paradigms, got %v", tr.Model, tr.Order)
			continue
		}
		bsp, asp := tr.FinishTimes["BSP"], tr.FinishTimes["ASP"]
		if tr.HasFullyConnected {
			// FC-heavy: BSP is the slowest to complete.
			if bsp <= asp {
				t.Errorf("%s: BSP (%v) should be slower than ASP (%v)", tr.Model, bsp, asp)
			}
			if tr.Order[0] == "BSP" {
				t.Errorf("%s: BSP should not be the fastest on an FC-heavy model", tr.Model)
			}
		} else {
			// Conv-only: BSP completes first.
			if bsp >= asp {
				t.Errorf("%s: BSP (%v) should be faster than ASP (%v)", tr.Model, bsp, asp)
			}
			if tr.Order[0] != "BSP" {
				t.Errorf("%s: BSP should be the fastest on a conv-only model, got %s", tr.Model, tr.Order[0])
			}
		}
	}
}

func TestFigure2WaitsSelectsLowWaitPoint(t *testing.T) {
	waits, rStar, err := Figure2Waits(time.Second, 3500*time.Millisecond, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(waits) != 9 {
		t.Fatalf("expected 9 wait predictions, got %d", len(waits))
	}
	if rStar < 0 || rStar > 8 {
		t.Fatalf("r* = %d out of range", rStar)
	}
	for r, w := range waits {
		if w < waits[rStar] {
			t.Fatalf("controller chose r*=%d (wait %v) but r=%d waits only %v", rStar, waits[rStar], r, w)
		}
	}
	if _, _, err := Figure2Waits(0, time.Second, 4); err == nil {
		t.Fatal("expected error for non-positive interval")
	}
}

func TestExperimentConfigDefaults(t *testing.T) {
	filled := ExperimentConfig{}.withDefaults()
	if filled.Epochs != 300 || filled.Points <= 0 {
		t.Fatalf("withDefaults produced %+v", filled)
	}
}
