package trainer

import (
	"testing"
	"time"

	"dssp/internal/core"
)

// TestRunBaselineParadigms exercises the bounded-delay related-work baseline
// (Li et al.) end to end through the real parameter server. The backup-worker
// BSP baseline is exercised in internal/core and internal/simulate only: with
// a fixed per-worker iteration quota its dropped-straggler semantics can leave
// the straggler's final round forever incomplete once the fast workers have
// finished, so it is not suited to the trainer's equal-quota termination
// model.
func TestRunBaselineParadigms(t *testing.T) {
	baselines := []core.PolicyConfig{
		{Paradigm: core.ParadigmBoundedDelay, Staleness: 4},
	}
	for _, p := range baselines {
		p := p
		t.Run(p.Describe(), func(t *testing.T) {
			cfg := smallConfig(p)
			cfg.Epochs = 4
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalAccuracy < 0.6 {
				t.Fatalf("final accuracy %v, want >= 0.6", res.FinalAccuracy)
			}
			if res.Updates == 0 {
				t.Fatal("no updates applied")
			}
		})
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
