package trainer

import (
	"fmt"
	"testing"
	"time"

	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
	"dssp/internal/ps"
)

// robustConfig is smallConfig with four workers, so one Byzantine worker is
// a 25% minority — inside trimmed-mean's breakdown point at the default trim
// of 0.25 per side.
func robustConfig(paradigm core.PolicyConfig) Config {
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
	return Config{
		Model:        nn.SpecSmallMLP(12, 16, 3),
		Train:        full.Subset(trainIdx),
		Test:         full.Subset(testIdx),
		Workers:      4,
		BatchSize:    8,
		Epochs:       6,
		Policy:       paradigm,
		LearningRate: 0.1,
		Seed:         5,
	}
}

// TestRobustAggregationUnderAttack is the paper-style A/B that the whole
// aggregator seam exists for: with one of four workers pushing scaled
// gradient ascent, plain summation destroys the model while the trimmed
// mean stays within tolerance of the clean baseline — under barrier,
// bounded-staleness, and dynamic-staleness paradigms alike.
func TestRobustAggregationUnderAttack(t *testing.T) {
	paradigms := []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmSSP, Staleness: 3},
		{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4},
	}
	attacker := map[int]Adversary{2: {GradScale: -10}}
	for _, p := range paradigms {
		p := p
		t.Run(p.Describe(), func(t *testing.T) {
			clean, err := Run(robustConfig(p))
			if err != nil {
				t.Fatal(err)
			}
			if clean.FinalAccuracy < 0.6 {
				t.Fatalf("clean baseline accuracy %v, want >= 0.6", clean.FinalAccuracy)
			}

			sumCfg := robustConfig(p)
			sumCfg.Adversaries = attacker
			poisoned, err := Run(sumCfg)
			if err != nil {
				t.Fatal(err)
			}
			if poisoned.FinalAccuracy > clean.FinalAccuracy-0.2 {
				t.Fatalf("plain sum under attack reached %v (clean %v); attack model is too weak to test against",
					poisoned.FinalAccuracy, clean.FinalAccuracy)
			}

			robustCfg := robustConfig(p)
			robustCfg.Adversaries = attacker
			robustCfg.Aggregator = ps.AggregatorConfig{Kind: ps.AggTrimmedMean}
			defended, err := Run(robustCfg)
			if err != nil {
				t.Fatal(err)
			}
			if defended.FinalAccuracy < clean.FinalAccuracy-0.15 {
				t.Fatalf("trimmed mean under attack reached %v, want within 0.15 of clean %v",
					defended.FinalAccuracy, clean.FinalAccuracy)
			}
		})
	}
}

// TestGuardEvictsLyingClock: a worker claiming impossible base versions must
// be detected and evicted by the guard, and surface in both the guard stats
// and the crashed list.
func TestGuardEvictsLyingClock(t *testing.T) {
	cfg := robustConfig(core.PolicyConfig{Paradigm: core.ParadigmASP})
	cfg.Adversaries = map[int]Adversary{3: {LieVersion: true}}
	cfg.Guard = ps.GuardConfig{Enabled: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	foundEvicted := false
	for _, w := range res.Guard.Evicted {
		if w == 3 {
			foundEvicted = true
		}
	}
	if !foundEvicted {
		t.Fatalf("guard evicted %v, want worker 3", res.Guard.Evicted)
	}
	if res.Guard.Flags[3] < ps.DefaultMaxStrikes {
		t.Fatalf("worker 3 flags = %d, want >= %d", res.Guard.Flags[3], ps.DefaultMaxStrikes)
	}
	foundCrashed := false
	for _, w := range res.Crashed {
		if w == 3 {
			foundCrashed = true
		}
	}
	if !foundCrashed {
		t.Fatalf("crashed %v, want worker 3 after eviction", res.Crashed)
	}
	if res.Guard.DroppedPushes == 0 {
		t.Fatal("guard reported no dropped pushes")
	}
	// The honest majority still converges.
	if res.FinalAccuracy < 0.6 {
		t.Fatalf("honest workers reached %v after eviction, want >= 0.6", res.FinalAccuracy)
	}
}

// TestStalenessAndWaitsReadFromRegistry: the run's staleness and waits are
// the server's registry series, not a second record of them. An unguarded
// lying clock claims a base version far ahead of its push's ticket; its
// staleness clamps to 0, so the mean is non-negative and the same on the
// Result and on /metrics. A slow worker under SSP makes the others wait.
func TestStalenessAndWaitsReadFromRegistry(t *testing.T) {
	cfg := robustConfig(core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 1})
	cfg.Adversaries = map[int]Adversary{3: {LieVersion: true}}
	cfg.WorkerDelay = []time.Duration{2 * time.Millisecond}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, count := res.Metrics["dssp_push_staleness_sum"], res.Metrics["dssp_push_staleness_count"]
	if count != float64(res.Updates) {
		t.Fatalf("dssp_push_staleness_count = %v, want one observation per update (%d)", count, res.Updates)
	}
	if res.MeanStaleness < 0 || res.MeanStaleness != sum/count {
		t.Fatalf("mean staleness %v, /metrics says %v/%v: want one non-negative mean", res.MeanStaleness, sum, count)
	}
	if max := res.Metrics["dssp_push_staleness_max"]; float64(res.MaxStaleness) != max || res.MaxStaleness < 1 {
		t.Fatalf("max staleness %d, dssp_push_staleness_max %v: want equal and positive under SSP(1)", res.MaxStaleness, max)
	}
	if len(res.Waits) != cfg.Workers {
		t.Fatalf("%d wait totals for %d workers", len(res.Waits), cfg.Workers)
	}
	var waited time.Duration
	for w, d := range res.Waits {
		series := fmt.Sprintf(`dssp_worker_wait_seconds{worker="%d"}`, w)
		if got := time.Duration(res.Metrics[series] * float64(time.Second)); d != got {
			t.Errorf("worker %d waited %v, %s says %v", w, d, series, got)
		}
		waited += d
	}
	if waited == 0 {
		t.Fatal("no worker waited behind a 2 ms straggler under SSP(1)")
	}
}

// TestGuardIgnoresHonestRun: with no adversary the guard must stay silent —
// the false-positive side of the detection table.
func TestGuardIgnoresHonestRun(t *testing.T) {
	cfg := robustConfig(core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 3})
	cfg.Guard = ps.GuardConfig{Enabled: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Guard.Evicted) != 0 {
		t.Fatalf("guard evicted %v on an honest run", res.Guard.Evicted)
	}
	for w, f := range res.Guard.Flags {
		if f != 0 {
			t.Fatalf("honest worker %d flagged %d times", w, f)
		}
	}
	if res.FinalAccuracy < 0.6 {
		t.Fatalf("accuracy %v with guard enabled, want >= 0.6", res.FinalAccuracy)
	}
}

// TestGuardSeesPrefetchedPulls: a flat worker's pulls arrive prefetched
// behind its releases, and the guard's flood rule counts pushes since the
// last pull, so a prefetched reply must count as the pull it replaces. Over
// 52 honest iterations a worker — thirteen times the flood slack — a guarded
// server strikes no one and drops nothing.
func TestGuardSeesPrefetchedPulls(t *testing.T) {
	cfg := robustConfig(core.PolicyConfig{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4})
	cfg.Epochs = 13 // 4 mini-batches an epoch per worker
	cfg.Guard = ps.GuardConfig{Enabled: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Guard.Evicted) != 0 || res.Guard.DroppedPushes != 0 || res.Dropped != 0 {
		t.Fatalf("guard evicted %v and dropped %d (%d) pushes of an honest run", res.Guard.Evicted, res.Guard.DroppedPushes, res.Dropped)
	}
	for w, f := range res.Guard.Flags {
		if f != 0 {
			t.Fatalf("honest worker %d flagged %d times", w, f)
		}
	}
}
