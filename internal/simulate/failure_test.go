package simulate

import (
	"testing"
	"time"

	"dssp/internal/core"
)

// failureRun executes a 4-worker run where worker 3 crashes early, and
// returns the per-worker applied-update counts.
func failureRun(t *testing.T, policy core.PolicyConfig) (*RunResult, []int) {
	t.Helper()
	cfg := RunConfig{
		Model:               ModelProfile{Name: "tiny", Params: 1e5, ComputeTime: 10 * time.Millisecond, Layers: 4},
		Cluster:             HomogeneousCluster(4),
		Policy:              policy,
		IterationsPerWorker: 40,
		Events:              []Event{Crash(3, 120*time.Millisecond)},
		Seed:                7,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	counts := make([]int, 4)
	for _, u := range res.Updates {
		counts[u.Worker]++
	}
	return res, counts
}

func TestSimulatedFailureDoesNotStallAnyParadigm(t *testing.T) {
	policies := []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmASP},
		{Paradigm: core.ParadigmSSP, Staleness: 2},
		{Paradigm: core.ParadigmDSSP, Staleness: 2, Range: 4},
		{Paradigm: core.ParadigmBoundedDelay, Staleness: 3},
		{Paradigm: core.ParadigmBackupBSP, Backups: 1},
	}
	for _, p := range policies {
		p := p
		t.Run(p.Describe(), func(t *testing.T) {
			res, counts := failureRun(t, p)
			// Every surviving worker must complete all of its iterations:
			// without OnLeave, the barrier paradigms would strand them
			// waiting on the crashed worker forever.
			for w := 0; w < 3; w++ {
				want := 40
				if p.Paradigm == core.ParadigmBackupBSP {
					// Straggler pushes are dropped, not applied.
					want = 40 - res.DroppedUpdates
					if counts[w] < want {
						t.Errorf("worker %d applied %d updates, want >= %d", w, counts[w], want)
					}
					continue
				}
				if counts[w] != want {
					t.Errorf("worker %d applied %d updates, want %d", w, counts[w], want)
				}
			}
			// The crashed worker got at most a handful of updates in.
			if counts[3] >= 40 {
				t.Errorf("crashed worker applied %d updates", counts[3])
			}
			if res.Finish <= 0 {
				t.Errorf("run never finished")
			}
		})
	}
}

func TestFailureAfterFinishIsIgnored(t *testing.T) {
	cfg := RunConfig{
		Model:               ModelProfile{Name: "tiny", Params: 1e5, ComputeTime: time.Millisecond, Layers: 4},
		Cluster:             HomogeneousCluster(2),
		Policy:              core.PolicyConfig{Paradigm: core.ParadigmBSP},
		IterationsPerWorker: 3,
		Events:              []Event{Crash(1, time.Hour)},
		Seed:                1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(res.Updates); got != 6 {
		t.Fatalf("applied %d updates, want 6", got)
	}
}

func TestFailureValidation(t *testing.T) {
	cfg := RunConfig{
		Model:               ModelProfile{Name: "tiny", Params: 1e5, ComputeTime: time.Millisecond, Layers: 4},
		Cluster:             HomogeneousCluster(2),
		Policy:              core.PolicyConfig{Paradigm: core.ParadigmBSP},
		IterationsPerWorker: 3,
		Events:              []Event{Crash(9, time.Second)},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range failure worker was accepted")
	}
}
