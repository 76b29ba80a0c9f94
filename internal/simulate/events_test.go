package simulate

import (
	"testing"
	"time"

	"dssp/internal/core"
)

func eventBase() RunConfig {
	return RunConfig{
		Model:               ModelProfile{Name: "tiny", Params: 1e5, ComputeTime: 10 * time.Millisecond, Layers: 4},
		Cluster:             HomogeneousCluster(4),
		Policy:              core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 2},
		IterationsPerWorker: 40,
		Seed:                7,
	}
}

func updateCounts(res *RunResult, workers int) []int {
	counts := make([]int, workers)
	for _, u := range res.Updates {
		counts[u.Worker]++
	}
	return counts
}

// TestRejoinResumesRemainingIterations: a crash preserves the iteration
// budget, and a rejoin finishes it — the worker ends with its full quota of
// applied updates despite the outage.
func TestRejoinResumesRemainingIterations(t *testing.T) {
	cfg := eventBase()
	cfg.Events = []Event{
		Crash(3, 120*time.Millisecond),
		Rejoin(3, 400*time.Millisecond),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", res.Rejoins)
	}
	counts := updateCounts(res, 4)
	if counts[3] != 40 {
		t.Fatalf("rejoined worker applied %d updates, want all 40", counts[3])
	}
}

// TestDelayShiftSlowsTheRun: quartering a worker's speed mid-run must push
// the finish time out.
func TestDelayShiftSlowsTheRun(t *testing.T) {
	base, err := Run(eventBase())
	if err != nil {
		t.Fatal(err)
	}
	cfg := eventBase()
	cfg.Events = []Event{{At: 50 * time.Millisecond, Worker: 0, Kind: EventDelayShift, Factor: 4}}
	slowed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slowed.Finish <= base.Finish {
		t.Fatalf("delay-shifted run finished at %v, baseline %v", slowed.Finish, base.Finish)
	}
}

func TestEventValidation(t *testing.T) {
	bad := []Event{
		{At: 0, Worker: 9, Kind: EventCrash},                  // worker out of range
		{At: 0, Worker: 0, Kind: EventDelayShift},             // missing factor
		{At: 0, Worker: 0, Kind: EventDelayShift, Factor: -1}, // negative factor
		{At: 0, Worker: 0},                                    // zero kind
	}
	for i, e := range bad {
		cfg := eventBase()
		cfg.Events = []Event{e}
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d (%+v): expected validation error", i, e)
		}
	}
}

// TestHostileLinkSlowsTheRun: a flapping or partitioned link on one worker
// must cost simulated wall-clock versus calm links.
func TestHostileLinkSlowsTheRun(t *testing.T) {
	base, err := Run(eventBase())
	if err != nil {
		t.Fatal(err)
	}
	for name, model := range map[string]LinkModel{
		"slow":        LinkSlow(),
		"partitioned": LinkPartitioned(),
	} {
		cfg := eventBase()
		cfg.Links = map[int]LinkModel{0: model}
		hostile, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hostile.Finish <= base.Finish {
			t.Errorf("%s link: finish %v not later than calm baseline %v", name, hostile.Finish, base.Finish)
		}
	}
}

// TestGuardEvictsLyingClockSim: the simulated guard must flag and evict a
// lying-clock worker while the honest workers complete untouched.
func TestGuardEvictsLyingClockSim(t *testing.T) {
	cfg := eventBase()
	cfg.Policy = core.PolicyConfig{Paradigm: core.ParadigmASP}
	cfg.Adversaries = map[int]AdversaryKind{2: AdversaryLyingClock}
	cfg.Guard = GuardSpec{Enabled: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", res.Evicted)
	}
	if res.Flags[2] < 3 {
		t.Fatalf("attacker flags = %d, want >= 3", res.Flags[2])
	}
	if res.GuardDropped == 0 {
		t.Fatal("no pushes dropped by the guard")
	}
	counts := updateCounts(res, 4)
	for w := 0; w < 4; w++ {
		if w == 2 {
			continue
		}
		if counts[w] != 40 {
			t.Errorf("honest worker %d applied %d updates, want 40", w, counts[w])
		}
		if res.Flags[w] != 0 {
			t.Errorf("honest worker %d flagged %d times", w, res.Flags[w])
		}
	}
}

// TestGuardEvictsPushFloodSim: a flooding worker exceeds the pushes-per-pull
// slack and is evicted.
func TestGuardEvictsPushFloodSim(t *testing.T) {
	cfg := eventBase()
	cfg.Policy = core.PolicyConfig{Paradigm: core.ParadigmASP}
	cfg.Adversaries = map[int]AdversaryKind{1: AdversaryPushFlood}
	cfg.Guard = GuardSpec{Enabled: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", res.Evicted)
	}
}

// TestFloodInflatesUpdatesWithoutGuard: without the guard, the flood attack
// succeeds — the attacker lands far more updates than its iteration budget.
func TestFloodInflatesUpdatesWithoutGuard(t *testing.T) {
	cfg := eventBase()
	cfg.Policy = core.PolicyConfig{Paradigm: core.ParadigmASP}
	cfg.Adversaries = map[int]AdversaryKind{1: AdversaryPushFlood}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := updateCounts(res, 4)
	if counts[1] <= 2*40 {
		t.Fatalf("flooding worker landed %d updates, want well above its 40 budget", counts[1])
	}
}

// TestAdversaryToggleMidRun: a worker turning hostile mid-run is detected
// only after the toggle.
func TestAdversaryToggleMidRun(t *testing.T) {
	cfg := eventBase()
	cfg.Policy = core.PolicyConfig{Paradigm: core.ParadigmASP}
	cfg.Guard = GuardSpec{Enabled: true}
	cfg.Events = []Event{{At: 200 * time.Millisecond, Worker: 0, Kind: EventAdversary, Adversary: AdversaryLyingClock}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != 0 {
		t.Fatalf("evicted %v, want [0] after mid-run toggle", res.Evicted)
	}
	counts := updateCounts(res, 4)
	if counts[0] == 0 {
		t.Fatal("worker 0 applied no updates before turning hostile")
	}
	if counts[0] >= 40 {
		t.Fatalf("worker 0 applied %d updates, want fewer than its 40 budget after eviction", counts[0])
	}
}
