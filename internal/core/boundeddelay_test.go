package core

import (
	"testing"
	"time"
)

func TestNewBoundedDelayValidation(t *testing.T) {
	if _, err := NewBoundedDelay(0, 3); err == nil {
		t.Error("NewBoundedDelay(0,3): expected error")
	}
	if _, err := NewBoundedDelay(2, 0); err == nil {
		t.Error("NewBoundedDelay(2,0): expected error")
	}
}

func TestBoundedDelayPaperExample(t *testing.T) {
	// The example from the paper's related work: two workers, k=3,
	// P1 runs {I1,I3,I5,...}, P2 runs {I2,I4,I6,...}. P2 finishing I2 may
	// start I4 only after I1 completes; P1 finishing I3 may start I5 only
	// after I2 completes.
	p := MustNewBoundedDelay(2, 3)
	now := time.Unix(0, 0)

	// P2 completes I2 first; I4 depends on I1 which has not completed.
	d := p.OnPush(1, now)
	if len(d.Release) != 0 {
		t.Fatalf("P2 must wait for I1 before starting I4, got release %v", d.Release)
	}
	// P1 completes I1; I3 depends on I0 (none), so P1 continues, and P2's I4
	// dependency (I1) is now satisfied.
	d = p.OnPush(0, now)
	if len(d.Release) != 2 {
		t.Fatalf("expected both workers released after I1 completes, got %v", d.Release)
	}
	// P1 completes I3; I5 depends on I2 which has completed: release.
	d = p.OnPush(0, now)
	if len(d.Release) != 1 || d.Release[0] != 0 {
		t.Fatalf("P1 should continue to I5, got %v", d.Release)
	}
	// P1 completes I5; I7 depends on I4 which has NOT completed: block.
	d = p.OnPush(0, now)
	if len(d.Release) != 0 {
		t.Fatalf("P1 must wait for I4 before I7, got %v", d.Release)
	}
	// P2 completes I4; I6 depends on I3 (done): release, and P1 unblocks.
	d = p.OnPush(1, now)
	if len(d.Release) != 2 {
		t.Fatalf("expected P1 and P2 released, got %v", d.Release)
	}
}

func TestBoundedDelayNeverDeadlocks(t *testing.T) {
	durations := []time.Duration{time.Second, 3 * time.Second, 7 * time.Second}
	drv := newReplayDriver(MustNewBoundedDelay(3, 4), durations)
	if !drv.run(500) {
		t.Fatal("bounded delay deadlocked")
	}
}

func TestBoundedDelayBoundsGlobalIterationGap(t *testing.T) {
	// With bound k, two concurrently running global iterations can differ by
	// at most k-1, which translates to a per-worker clock spread of roughly
	// k/P plus one.
	const k = 6
	durations := []time.Duration{time.Second, 10 * time.Second}
	drv := newReplayDriver(MustNewBoundedDelay(2, k), durations)
	if !drv.run(300) {
		t.Fatal("bounded delay deadlocked")
	}
	if drv.maxSpread > k {
		t.Fatalf("clock spread %d exceeds bound %d", drv.maxSpread, k)
	}
}
