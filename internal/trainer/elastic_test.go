package trainer

import (
	"testing"
	"time"

	"dssp/internal/core"
	"dssp/internal/data"
	"dssp/internal/nn"
)

// elasticConfig is a small, fast run: 3 workers on a synthetic MLP problem
// that converges well past 0.8 accuracy at full strength.
func elasticConfig(t *testing.T, policy core.PolicyConfig) Config {
	t.Helper()
	ds, err := data.Synthetic(data.SyntheticConfig{
		Examples: 360, Classes: 3, Channels: 1, Size: 12, Noise: 0.3, Flat: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model:        nn.SpecSmallMLP(12, 24, 3),
		Train:        ds,
		Workers:      3,
		BatchSize:    12,
		Epochs:       4,
		Policy:       policy,
		LearningRate: 0.1,
		Seed:         5,
	}
}

// runWithDeadline guards against the exact failure mode under test — a
// deadlocked barrier — so a regression fails fast instead of hanging the
// suite until the go test timeout.
func runWithDeadline(t *testing.T, cfg Config) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("Run: %v", o.err)
		}
		return o.res
	case <-time.After(120 * time.Second):
		t.Fatalf("training deadlocked (%s with a crashed worker)", cfg.Policy.Describe())
		return nil
	}
}

// TestWorkerCrashMidRunCompletesUnderEachParadigm is the no-deadlock
// guarantee of the membership layer, pinned at the highest level: a worker
// killed mid-run (abrupt connection drop, no Done, no Leave) must not stall
// BSP, SSP or DSSP, and the survivors must still converge to an accuracy
// comparable to the full-strength run.
func TestWorkerCrashMidRunCompletesUnderEachParadigm(t *testing.T) {
	policies := []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmSSP, Staleness: 2},
		{Paradigm: core.ParadigmDSSP, Staleness: 2, Range: 4},
	}
	for _, p := range policies {
		p := p
		t.Run(p.Describe(), func(t *testing.T) {
			t.Parallel()
			full := runWithDeadline(t, elasticConfig(t, p))

			crashed := elasticConfig(t, p)
			// Worker 2 dies a third of the way through the run.
			itersPerEpoch := (crashed.Train.Len()/crashed.Workers + crashed.BatchSize - 1) / crashed.BatchSize
			crashed.CrashAt = map[int]int{2: itersPerEpoch * crashed.Epochs / 3}
			res := runWithDeadline(t, crashed)

			if len(res.Crashed) != 1 || res.Crashed[0] != 2 {
				t.Fatalf("crashed workers = %v, want [2]", res.Crashed)
			}
			if res.Updates >= full.Updates {
				t.Errorf("crashed run applied %d updates, full run %d — the crash did nothing?",
					res.Updates, full.Updates)
			}
			// Survivors finish the job: final accuracy within tolerance of
			// the full-strength run. The tolerance is generous — the point is
			// "still converged", not "identical".
			if res.FinalAccuracy < full.FinalAccuracy-0.2 {
				t.Errorf("crashed-run accuracy %.3f too far below full-run %.3f",
					res.FinalAccuracy, full.FinalAccuracy)
			}
			if res.FinalAccuracy < 0.5 {
				t.Errorf("crashed-run accuracy %.3f never converged", res.FinalAccuracy)
			}
		})
	}
}

// TestElasticHeartbeatsEndToEnd runs a full elastic training with heartbeats
// on: liveness traffic must not disturb the lock-step protocol or the
// result.
func TestElasticHeartbeatsEndToEnd(t *testing.T) {
	cfg := elasticConfig(t, core.PolicyConfig{Paradigm: core.ParadigmDSSP, Staleness: 2, Range: 4})
	cfg.Elastic = true
	cfg.HeartbeatInterval = 10 * time.Millisecond
	res := runWithDeadline(t, cfg)
	if res.FinalAccuracy < 0.5 {
		t.Errorf("accuracy %.3f with heartbeats", res.FinalAccuracy)
	}
	if res.Updates == 0 {
		t.Error("no updates applied")
	}
}
