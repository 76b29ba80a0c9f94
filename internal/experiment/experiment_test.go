package experiment

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/ps"
	"dssp/internal/simulate"
	"dssp/internal/trainer"
)

// baseTraining is the shared 4-worker training run the matrix cells derive
// from: small enough that a 2x2 grid with trials stays under a second.
func baseTraining() trainer.Config {
	full := data.MustSynthetic(data.SyntheticConfig{
		Examples: 176, Classes: 3, Channels: 1, Size: 12, Noise: 0.4, Flat: true, Seed: 11,
	})
	trainIdx := make([]int, 128)
	testIdx := make([]int, 48)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	for i := range testIdx {
		testIdx[i] = 128 + i
	}
	return trainer.Config{
		Model:        nn.SpecSmallMLP(12, 16, 3),
		Train:        full.Subset(trainIdx),
		Test:         full.Subset(testIdx),
		Workers:      4,
		BatchSize:    8,
		Epochs:       6,
		Policy:       core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 3},
		LearningRate: 0.1,
		Seed:         5,
	}
}

// TestMatrixSeparatesDefenses is the harness's reason to exist: on the
// default 2x2 grid the undefended attacked cell collapses while the
// trimmed-mean attacked cell stays near the clean baseline.
func TestMatrixSeparatesDefenses(t *testing.T) {
	report, err := Run(ScenarioConfig{Name: "smoke", Base: baseTraining()})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) != 4 {
		t.Fatalf("got %d cells, want 4 from the default 2x2 grid", len(report.Cells))
	}
	clean, ok := report.Cell("clean", "sum")
	if !ok {
		t.Fatal("missing (clean, sum) cell")
	}
	attackedSum, _ := report.Cell("grad-scale(-10)", "sum")
	attackedRobust, _ := report.Cell("grad-scale(-10)", "trimmed-mean")
	if clean.MeanAccuracy < 0.6 {
		t.Fatalf("clean baseline accuracy %v, want >= 0.6", clean.MeanAccuracy)
	}
	if attackedSum.MeanAccuracy > clean.MeanAccuracy-0.2 {
		t.Fatalf("attacked sum cell at %v, want well below clean %v", attackedSum.MeanAccuracy, clean.MeanAccuracy)
	}
	if attackedRobust.MeanAccuracy < clean.MeanAccuracy-0.15 {
		t.Fatalf("attacked trimmed-mean cell at %v, want within 0.15 of clean %v", attackedRobust.MeanAccuracy, clean.MeanAccuracy)
	}
}

// lyingClock makes worker 3 claim impossible base versions.
var lyingClock = Attack{Name: "lying-clock", Workers: []int{3}, Adversary: trainer.Adversary{LieVersion: true}}

// TestGuardDetectionRates: a guarded defense against a lying-clock attack
// must show full TPR and zero FPR, and every guarded cell must reach the
// accuracy floor.
func TestGuardDetectionRates(t *testing.T) {
	cfg := ScenarioConfig{
		Base:     baseTraining(),
		Attacks:  []Attack{CleanBaseline(), lyingClock},
		Defenses: []Defense{GuardedDefense(SumDefense())},
		Trials:   2,
	}
	cfg.Base.Policy = core.PolicyConfig{Paradigm: core.ParadigmASP}
	report, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attacked, ok := report.Cell("lying-clock", "sum+guard")
	if !ok {
		t.Fatal("missing attacked guarded cell")
	}
	if attacked.TPR != 1 {
		t.Fatalf("TPR = %v, want 1 (attacker flagged every trial)", attacked.TPR)
	}
	if attacked.FPR != 0 {
		t.Fatalf("FPR = %v, want 0 (no honest worker flagged)", attacked.FPR)
	}
	if attacked.MeanEvictions < 1 {
		t.Fatalf("mean evictions %v, want >= 1", attacked.MeanEvictions)
	}
	clean, _ := report.Cell("clean", "sum+guard")
	if clean.TPR != 0 || clean.FPR != 0 || clean.MeanEvictions != 0 {
		t.Fatalf("clean cell shows detections: %+v", clean)
	}
	for _, c := range report.Cells {
		if c.MeanAccuracy < 0.6 {
			t.Fatalf("accuracy floor %v across guarded cells, want >= 0.6", c.MeanAccuracy)
		}
	}
}

// TestGuardRejectionsCountedOnce: the pushes the guard rejects — every
// flagged one, the push that evicts the lying clock included — are one
// number on every surface: the server's drops, GuardStats and the guard's
// dropped-push series of a direct run, and a one-trial cell's mean drops and
// the guard's series of that same trial. Each run is compared with itself: an ASP schedule is set by timing,
// and the count must hold within any one run, not across two separately
// timed ones.
func TestGuardRejectionsCountedOnce(t *testing.T) {
	base := baseTraining()
	base.Policy = core.PolicyConfig{Paradigm: core.ParadigmASP}
	attack, defense := lyingClock, GuardedDefense(SumDefense())

	run := base
	run.Adversaries = attack.adversaries()
	run.Guard = defense.Guard
	res, err := trainer.Run(run)
	if err != nil {
		t.Fatal(err)
	}
	// The precondition is what the eviction rule counts: flags, not pushes.
	// One push may raise two flags (a lying clock that also trips the norm
	// check), so the liar can be evicted after fewer than DefaultMaxStrikes
	// rejected pushes.
	guarded := res.Dropped
	if !slices.Contains(res.Guard.Evicted, 3) || res.Guard.Flags[3] < ps.DefaultMaxStrikes || guarded < 1 {
		t.Fatalf("guard evicted %v with flags %v after %d rejections; want worker 3 evicted on at least %d flags",
			res.Guard.Evicted, res.Guard.Flags, guarded, ps.DefaultMaxStrikes)
	}
	if res.Guard.DroppedPushes != guarded || res.Metrics[`dssp_push_dropped_total{reason="guard"}`] != float64(guarded) {
		t.Fatalf("guard rejections: %d from Dropped, %d in GuardStats, %v on /metrics; want one count",
			guarded, res.Guard.DroppedPushes, res.Metrics[`dssp_push_dropped_total{reason="guard"}`])
	}

	report, err := Run(ScenarioConfig{Base: base, Attacks: []Attack{attack}, Defenses: []Defense{defense}, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	cell := report.Cells[0]
	cellGuarded := cell.MeanDropped
	if cell.MeanEvictions < 1 || cellGuarded < 1 || cellGuarded != cell.Pipeline[`dssp_push_dropped_total{reason="guard"}`] {
		t.Fatalf("one-trial cell: %v evictions, %v guard rejections from mean drops, %v on its /metrics; want the liar evicted and one count",
			cell.MeanEvictions, cellGuarded, cell.Pipeline[`dssp_push_dropped_total{reason="guard"}`])
	}
}

func TestMatrixValidation(t *testing.T) {
	cfg := ScenarioConfig{
		Base:    baseTraining(),
		Attacks: []Attack{GradScaleAttack(-10, 99)},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("attack naming worker 99 validated")
	}
	cfg = ScenarioConfig{
		Base:     baseTraining(),
		Defenses: []Defense{{Name: "bad", Aggregator: ps.AggregatorConfig{Kind: "bogus"}}},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown aggregator kind validated")
	}
}

// TestReportRendering: the table and JSON forms carry the grid.
func TestReportRendering(t *testing.T) {
	report, err := Run(ScenarioConfig{
		Name:     "render",
		Base:     baseTraining(),
		Attacks:  []Attack{CleanBaseline()},
		Defenses: []Defense{SumDefense()},
	})
	if err != nil {
		t.Fatal(err)
	}
	report.Timing, err = TimingMatrix(TimingMatrixConfig{
		Policies:  []core.PolicyConfig{{Paradigm: core.ParadigmSSP, Staleness: 2}},
		Scenarios: []NetworkScenario{CalmNetwork()},
		Trials:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := report.Table()
	for _, want := range []string{"attack", "clean", "sum", "timing (simulated)", "calm"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	raw, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Cells) != 1 || decoded.Cells[0].Attack != "clean" {
		t.Fatalf("JSON round-trip lost cells: %+v", decoded.Cells)
	}
	if len(decoded.Timing) != 1 {
		t.Fatalf("JSON round-trip lost timing cells: %+v", decoded.Timing)
	}
}

// TestTimingMatrixHostileNetworksCost: flapping and partitioned scenarios
// must finish later than calm under every default paradigm.
func TestTimingMatrixHostileNetworksCost(t *testing.T) {
	cells, err := TimingMatrix(TimingMatrixConfig{Trials: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Index mean finishes by scenario then paradigm.
	finish := map[string]map[string]float64{}
	for _, c := range cells {
		if finish[c.Scenario] == nil {
			finish[c.Scenario] = map[string]float64{}
		}
		finish[c.Scenario][c.Paradigm] = float64(c.MeanFinish)
	}
	for paradigm := range finish["calm"] {
		calm := finish["calm"][paradigm]
		for _, hostile := range []string{"flapping", "partitioned"} {
			if finish[hostile][paradigm] <= calm {
				t.Errorf("%s under %s finished at %v, not later than calm %v",
					paradigm, hostile, finish[hostile][paradigm], calm)
			}
		}
	}
}

// TestTimingMatrixFanoutCutsRootIngress sweeps the aggregation-tier fanout
// (flat vs 4 vs 8) and checks the root's simulated push ingress falls
// monotonically with fanout in every paradigm, while throughput survives.
func TestTimingMatrixFanoutCutsRootIngress(t *testing.T) {
	cells, err := TimingMatrix(TimingMatrixConfig{
		Cluster:   simulate.HomogeneousCluster(16),
		Scenarios: []NetworkScenario{CalmNetwork()},
		Fanouts:   []int{0, 4, 8},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string]map[int]float64{}
	for _, c := range cells {
		if frames[c.Paradigm] == nil {
			frames[c.Paradigm] = map[int]float64{}
		}
		frames[c.Paradigm][c.Fanout] = c.MeanRootFrames
	}
	if len(frames) != 3 {
		t.Fatalf("expected 3 paradigms, got %d: %+v", len(frames), frames)
	}
	for paradigm, byFanout := range frames {
		flat, f4, f8 := byFanout[0], byFanout[4], byFanout[8]
		if flat == 0 || f4 == 0 || f8 == 0 {
			t.Fatalf("%s: missing fanout cells: %+v", paradigm, byFanout)
		}
		if f4*3 > flat {
			t.Errorf("%s: fanout-4 root frames %.0f vs flat %.0f, want >= 3x fewer", paradigm, f4, flat)
		}
		if f8 >= f4 {
			t.Errorf("%s: fanout-8 root frames %.0f not below fanout-4's %.0f", paradigm, f8, f4)
		}
	}
}
