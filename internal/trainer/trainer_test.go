package trainer

import (
	"testing"
	"time"

	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
)

// smallConfig returns a configuration that trains the tiny MLP on an easy
// synthetic dataset in well under a second. Train and test shards come from
// the same generated dataset so that they share class prototypes.
func smallConfig(paradigm core.PolicyConfig) Config {
	full := data.MustSynthetic(data.SyntheticConfig{
		Examples: 144, Classes: 3, Channels: 1, Size: 12, Noise: 0.4, Flat: true, Seed: 11,
	})
	trainIdx := make([]int, 96)
	testIdx := make([]int, 48)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	for i := range testIdx {
		testIdx[i] = 96 + i
	}
	train := full.Subset(trainIdx)
	test := full.Subset(testIdx)
	return Config{
		Model:        nn.SpecSmallMLP(12, 16, 3),
		Train:        train,
		Test:         test,
		Workers:      3,
		BatchSize:    8,
		Epochs:       6,
		Policy:       paradigm,
		LearningRate: 0.1,
		Seed:         5,
	}
}

func TestConfigValidation(t *testing.T) {
	valid := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmASP})
	broken := []func(*Config){
		func(c *Config) { c.Model = nn.ModelSpec{} },
		func(c *Config) { c.Train = nil },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.LearningRate = 0 },
	}
	for i, mutate := range broken {
		cfg := valid
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRunTrainsUnderEveryParadigm(t *testing.T) {
	paradigms := []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmASP},
		{Paradigm: core.ParadigmSSP, Staleness: 3},
		{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4},
	}
	for _, p := range paradigms {
		p := p
		t.Run(p.Describe(), func(t *testing.T) {
			res, err := Run(smallConfig(p))
			if err != nil {
				t.Fatal(err)
			}
			if res.Updates == 0 {
				t.Fatal("no updates were applied")
			}
			if len(res.Accuracy.Points()) == 0 {
				t.Fatal("no accuracy samples recorded")
			}
			if res.FinalAccuracy < 0.6 {
				t.Fatalf("final accuracy %v, want >= 0.6 on the easy synthetic task", res.FinalAccuracy)
			}
			if res.Duration <= 0 {
				t.Fatal("duration not recorded")
			}
			if res.Paradigm == "" {
				t.Fatal("paradigm label missing")
			}
		})
	}
}

func TestRunAppliesExpectedNumberOfUpdates(t *testing.T) {
	cfg := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmASP})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 3 workers owns 32 examples, so 4 iterations per epoch over
	// 6 epochs = 24 pushes per worker, 72 in total.
	if res.Updates != 72 {
		t.Fatalf("updates = %d, want 72", res.Updates)
	}
}

func TestRunBSPKeepsStalenessAtZero(t *testing.T) {
	res, err := Run(smallConfig(core.PolicyConfig{Paradigm: core.ParadigmBSP}))
	if err != nil {
		t.Fatal(err)
	}
	// Under BSP every worker computes against the weights produced by the
	// previous barrier, so staleness never exceeds the number of workers - 1
	// (updates applied within the same barrier round).
	if res.MaxStaleness > 2 {
		t.Fatalf("BSP max staleness = %d, want <= workers-1", res.MaxStaleness)
	}
}

func TestRunSSPRespectsStalenessBound(t *testing.T) {
	cfg := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 2})
	cfg.WorkerDelay = []time.Duration{0, 0, 3 * time.Millisecond}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the bound s and P workers, an applied update can be at most
	// (s+1)*P updates stale (every other worker may contribute updates while
	// the pushing worker is s iterations behind).
	limit := (2 + 1) * cfg.Workers
	if res.MaxStaleness > limit {
		t.Fatalf("SSP max staleness %d exceeds limit %d", res.MaxStaleness, limit)
	}
}

// TestRunDSSPEnforcedBoundEndToEnd runs the Theorem-2 DSSP variant through
// the real trainer and checks the bounded-staleness consequence: the maximum
// observed update staleness stays within (sU+1) * workers.
func TestRunDSSPEnforcedBoundEndToEnd(t *testing.T) {
	cfg := smallConfig(core.PolicyConfig{
		Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 2, EnforceBound: true,
	})
	cfg.WorkerDelay = []time.Duration{0, 0, 5 * time.Millisecond}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	limit := (1 + 2 + 1) * cfg.Workers
	if res.MaxStaleness > limit {
		t.Fatalf("max staleness %d exceeds bound-implied limit %d", res.MaxStaleness, limit)
	}
	if res.FinalAccuracy < 0.6 {
		t.Fatalf("final accuracy %v", res.FinalAccuracy)
	}
}

func TestRunHeterogeneousDelayCreatesWaitsUnderBSP(t *testing.T) {
	cfg := smallConfig(core.PolicyConfig{Paradigm: core.ParadigmBSP})
	cfg.Epochs = 2
	cfg.WorkerDelay = []time.Duration{0, 0, 10 * time.Millisecond}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The two fast workers must accumulate waiting time at the barrier while
	// the slow worker computes.
	if res.Waits[0] == 0 && res.Waits[1] == 0 {
		t.Fatal("expected barrier waiting time for fast workers under BSP")
	}
}

func TestRunSmallCNNEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN end-to-end training skipped in -short mode")
	}
	train := data.MustSynthetic(data.SyntheticConfig{
		Examples: 64, Classes: 4, Channels: 3, Size: 8, Noise: 0.4, Seed: 21,
	})
	cfg := Config{
		Model:        nn.SpecSmallCNN(8, 4),
		Train:        train,
		Workers:      2,
		BatchSize:    8,
		Epochs:       4,
		Policy:       core.PolicyConfig{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4},
		LearningRate: 0.05,
		Momentum:     0.9,
		Seed:         3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("CNN accuracy %v, want >= 0.5", res.FinalAccuracy)
	}
}
