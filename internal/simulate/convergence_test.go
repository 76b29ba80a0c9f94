package simulate

import (
	"testing"
	"time"

	"dssp/internal/metrics"
)

func testSpec() ConvergenceSpec {
	return ConvergenceSpec{
		FloorAccuracy:        0.1,
		PeakAccuracy:         0.7,
		ProgressRate:         5,
		StalenessQuality:     0.02,
		StalenessPenalty:     0.1,
		PenaltyHalfLife:      5,
		NoiseBonus:           0.02,
		NoiseBonusSaturation: 2,
		UnboundedPenalty:     0.03,
	}
}

func TestPlateauDecreasesWithStalenessWhenPenaltyDominates(t *testing.T) {
	spec := testSpec()
	spec.NoiseBonus = 0
	prev := spec.Plateau(0, true)
	for s := 1.0; s <= 50; s += 5 {
		p := spec.Plateau(s, true)
		if p > prev {
			t.Fatalf("plateau increased at staleness %v", s)
		}
		prev = p
	}
	if spec.Plateau(1000, true) < spec.FloorAccuracy {
		t.Fatal("plateau fell below the floor")
	}
}

func TestPlateauNoiseBonusHelpsConvOnlyModels(t *testing.T) {
	spec := ModelResNet110.Convergence
	if spec.Plateau(3, true) <= spec.Plateau(0.2, true) {
		t.Fatal("moderate staleness should raise the conv-only plateau (paper §V-C)")
	}
	alex := ModelAlexNetSmall.Convergence
	if alex.Plateau(3, true) >= alex.Plateau(0.5, true) {
		t.Fatal("staleness must lower the FC-model plateau")
	}
}

func TestPlateauUnboundedPenaltyAppliesOnlyToUnboundedRuns(t *testing.T) {
	spec := testSpec()
	bounded := spec.Plateau(2, true)
	unbounded := spec.Plateau(2, false)
	if unbounded >= bounded {
		t.Fatalf("unbounded plateau %v should be below bounded %v", unbounded, bounded)
	}
}

func TestUpdateQualityDecreasesWithStaleness(t *testing.T) {
	spec := testSpec()
	if spec.UpdateQuality(0) != 1 {
		t.Fatal("fresh update quality must be 1")
	}
	if spec.UpdateQuality(-5) != 1 {
		t.Fatal("negative staleness clamps to fresh")
	}
	if spec.UpdateQuality(10) >= spec.UpdateQuality(1) {
		t.Fatal("staler updates must contribute less")
	}
}

func TestAccuracyCurveIsMonotoneAndBelowPlateau(t *testing.T) {
	spec := testSpec()
	run := &RunResult{Label: "x", Bounded: true}
	for i := 0; i < 1000; i++ {
		run.Updates = append(run.Updates, UpdateEvent{At: time.Duration(i) * time.Second, Worker: i % 4, Staleness: i % 5})
	}
	curve := AccuracyCurve(spec, run, 1000, 40)
	if len(curve.Points()) < 2 {
		t.Fatalf("curve has %d points", len(curve.Points()))
	}
	pts := curve.Points()
	plateau := spec.Plateau(run.MeanStaleness(), true)
	prev := 0.0
	for i, p := range pts {
		if p.Value < prev-1e-9 {
			t.Fatalf("accuracy decreased at point %d", i)
		}
		if p.Value > plateau+1e-9 {
			t.Fatalf("accuracy %v exceeded plateau %v", p.Value, plateau)
		}
		prev = p.Value
	}
	if final := pts[len(pts)-1].Value; final < 0.9*plateau {
		t.Fatalf("final accuracy %v did not approach the plateau %v", final, plateau)
	}
}

func TestAccuracyCurveEmptyInputs(t *testing.T) {
	spec := testSpec()
	empty := &RunResult{Label: "x"}
	if len(AccuracyCurve(spec, empty, 100, 10).Points()) != 0 {
		t.Fatal("empty run should give an empty curve")
	}
	run := &RunResult{Label: "x", Updates: []UpdateEvent{{At: time.Second}}}
	if len(AccuracyCurve(spec, run, 0, 10).Points()) != 0 {
		t.Fatal("zero planned updates should give an empty curve")
	}
}

func TestFresherUpdatesConvergeFasterAtEqualThroughput(t *testing.T) {
	spec := testSpec()
	fresh := &RunResult{Label: "fresh", Bounded: true}
	stale := &RunResult{Label: "stale", Bounded: true}
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * time.Second
		fresh.Updates = append(fresh.Updates, UpdateEvent{At: at, Staleness: 0})
		stale.Updates = append(stale.Updates, UpdateEvent{At: at, Staleness: 40})
	}
	// Compare progress toward a common reference (ignore plateau effects by
	// reading mid-curve accuracy).
	freshCurve := AccuracyCurve(spec, fresh, 1000, 50)
	staleCurve := AccuracyCurve(spec, stale, 1000, 50)
	fv, ok1 := freshCurve.ValueAt(250 * time.Second)
	sv, ok2 := staleCurve.ValueAt(250 * time.Second)
	if !ok1 || !ok2 {
		t.Fatal("mid-curve values unavailable")
	}
	if fv <= sv {
		t.Fatalf("fresh updates (%v) should outpace stale updates (%v)", fv, sv)
	}
}

func TestAverageSeries(t *testing.T) {
	a := metrics.NewTimeSeries("a")
	b := metrics.NewTimeSeries("b")
	for i := 1; i <= 10; i++ {
		a.Add(time.Duration(i)*time.Second, 0.2)
		b.Add(time.Duration(i)*time.Second, 0.4)
	}
	avg := AverageSeries("avg", []*metrics.TimeSeries{a, b}, 5)
	if avg.Name() != "avg" || len(avg.Points()) != 5 {
		t.Fatalf("unexpected average series %v/%d", avg.Name(), len(avg.Points()))
	}
	for _, p := range avg.Points() {
		if p.Value < 0.299 || p.Value > 0.301 {
			t.Fatalf("average value %v, want 0.3", p.Value)
		}
	}
	if len(AverageSeries("empty", nil, 5).Points()) != 0 {
		t.Fatal("empty input should give empty average")
	}
}
