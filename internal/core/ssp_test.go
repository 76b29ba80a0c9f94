package core

import (
	"testing"
	"time"
)

func TestNewSSPValidation(t *testing.T) {
	if _, err := NewSSP(0, 3); err == nil {
		t.Error("NewSSP(0,3): expected error")
	}
	if _, err := NewSSP(4, -1); err == nil {
		t.Error("NewSSP(4,-1): expected error")
	}
	if _, err := NewSSP(4, 0); err != nil {
		t.Errorf("NewSSP(4,0): unexpected error %v", err)
	}
}

func TestSSPReleasesWithinThreshold(t *testing.T) {
	p := MustNewSSP(2, 3)
	now := time.Now()
	// Worker 0 may run up to threshold+1 pushes ahead before blocking: the
	// push that makes it 4 ahead of worker 1 (clock 4 vs 0) blocks.
	for i := 0; i < 3; i++ {
		d := p.OnPush(0, now)
		if len(d.Release) != 1 || d.Release[0] != 0 {
			t.Fatalf("push %d: expected release of worker 0, got %v", i, d.Release)
		}
	}
	d := p.OnPush(0, now)
	if len(d.Release) != 0 {
		t.Fatalf("expected worker 0 blocked at spread 4 > s=3, got release %v", d.Release)
	}
	if got := p.Blocked(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("expected worker 0 blocked, got %v", got)
	}
}

func TestSSPSlowWorkerPushUnblocksFastWorker(t *testing.T) {
	p := MustNewSSP(2, 1)
	now := time.Now()
	p.OnPush(0, now) // clock 1 vs 0: released
	d := p.OnPush(0, now)
	if len(d.Release) != 0 {
		t.Fatalf("worker 0 should block at clock 2 vs 0 with s=1, got %v", d.Release)
	}
	// Worker 1 pushes: its own release plus worker 0's.
	d = p.OnPush(1, now)
	if len(d.Release) != 2 {
		t.Fatalf("expected both workers released, got %v", d.Release)
	}
	found := map[WorkerID]bool{}
	for _, id := range d.Release {
		found[id] = true
	}
	if !found[0] || !found[1] {
		t.Fatalf("expected workers 0 and 1 in release set, got %v", d.Release)
	}
}

func TestSSPWithZeroThresholdStillAllowsOneIterationGap(t *testing.T) {
	// With s=0 a worker that pushes while others are at the same clock is
	// released (difference 1 appears only between its next iteration and the
	// others' current one); a second push without others advancing blocks.
	p := MustNewSSP(3, 0)
	now := time.Now()
	if d := p.OnPush(0, now); len(d.Release) != 0 {
		t.Fatalf("worker 0 at clock 1 vs min 0 should block under s=0, got %v", d.Release)
	}
	if d := p.OnPush(1, now); len(d.Release) != 0 {
		t.Fatalf("worker 1 should block, got %v", d.Release)
	}
	d := p.OnPush(2, now)
	if len(d.Release) != 3 {
		t.Fatalf("expected all released once clocks equal, got %v", d.Release)
	}
}

func TestSSPOnlyFastWorkersWait(t *testing.T) {
	p := MustNewSSP(3, 2)
	now := time.Now()
	// Workers 0 and 1 advance to clock 3; worker 2 stays at 0.
	for i := 0; i < 3; i++ {
		d0 := p.OnPush(0, now)
		d1 := p.OnPush(1, now)
		if i < 2 {
			if len(d0.Release) != 1 || len(d1.Release) != 1 {
				t.Fatalf("iteration %d: middle workers should not block", i)
			}
		} else {
			if len(d0.Release) != 0 || len(d1.Release) != 0 {
				t.Fatalf("iteration %d: workers 3 ahead must block under s=2", i)
			}
		}
	}
	blocked := p.Blocked()
	if len(blocked) != 2 {
		t.Fatalf("expected exactly the two fast workers blocked, got %v", blocked)
	}
	// Slow worker's push unblocks both.
	d := p.OnPush(2, now)
	if len(d.Release) != 3 {
		t.Fatalf("expected 3 releases after slow worker push, got %v", d.Release)
	}
}

func TestSSPSpreadNeverExceedsThresholdPlusOne(t *testing.T) {
	const (
		workers   = 5
		threshold = 4
		pushes    = 500
	)
	p := MustNewSSP(workers, threshold)
	released := make([]bool, workers)
	for i := range released {
		released[i] = true
	}
	now := time.Now()
	rng := newTestRand(7)
	for i := 0; i < pushes; i++ {
		// Pick a random worker that is currently allowed to run.
		candidates := make([]WorkerID, 0, workers)
		for w, ok := range released {
			if ok {
				candidates = append(candidates, WorkerID(w))
			}
		}
		if len(candidates) == 0 {
			t.Fatal("deadlock: no releasable workers")
		}
		w := candidates[rng.Intn(len(candidates))]
		released[w] = false
		d := p.OnPush(w, now)
		for _, id := range d.Release {
			released[id] = true
		}
		if spread := clockSpread(p); spread > threshold+1 {
			t.Fatalf("push %d: spread %d exceeds threshold+1 (%d)", i, spread, threshold+1)
		}
	}
}

func TestSSPThresholdAccessors(t *testing.T) {
	p := MustNewSSP(4, 7)
	if b, ok := p.StalenessBound(); p.LowerBound() != 7 || b != 7 || !ok {
		t.Fatalf("unexpected threshold accessors: %d, %d, %v", p.LowerBound(), b, ok)
	}
}

// clockSpread returns the difference between the maximum and minimum worker
// clocks of a policy.
func clockSpread(p Policy) int {
	minC, maxC := p.Clock(0), p.Clock(0)
	for w := 1; w < p.NumWorkers(); w++ {
		c := p.Clock(WorkerID(w))
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	return maxC - minC
}
