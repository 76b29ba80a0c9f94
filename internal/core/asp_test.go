package core

import (
	"testing"
	"time"
)

func TestNewASPRejectsInvalidWorkerCount(t *testing.T) {
	if _, err := NewASP(0); err == nil {
		t.Fatal("NewASP(0): expected error, got nil")
	}
}

func TestASPAlwaysReleasesPusher(t *testing.T) {
	p := MustNewASP(3)
	now := time.Now()
	for i := 0; i < 20; i++ {
		w := WorkerID(i % 3)
		d := p.OnPush(w, now)
		if len(d.Release) != 1 || d.Release[0] != w {
			t.Fatalf("push %d: expected release of worker %d, got %v", i, w, d.Release)
		}
	}
	if len(p.Blocked()) != 0 {
		t.Fatalf("ASP must never block, got %v", p.Blocked())
	}
}

func TestASPAllowsUnboundedSpread(t *testing.T) {
	p := MustNewASP(2)
	now := time.Now()
	for i := 0; i < 100; i++ {
		d := p.OnPush(0, now)
		if len(d.Release) != 1 {
			t.Fatalf("fast worker blocked at push %d", i)
		}
	}
	if p.Clock(0) != 100 || p.Clock(1) != 0 {
		t.Fatalf("unexpected clocks %d/%d", p.Clock(0), p.Clock(1))
	}
	if _, ok := p.StalenessBound(); ok {
		t.Fatal("ASP must not claim a staleness bound")
	}
}

func TestASPClockCountsPerWorker(t *testing.T) {
	p := MustNewASP(4)
	now := time.Now()
	pushes := map[WorkerID]int{0: 3, 1: 7, 2: 0, 3: 1}
	for w, n := range pushes {
		for i := 0; i < n; i++ {
			p.OnPush(w, now)
		}
	}
	for w, n := range pushes {
		if p.Clock(w) != n {
			t.Errorf("worker %d clock = %d, want %d", w, p.Clock(w), n)
		}
	}
	if p.NumWorkers() != 4 {
		t.Errorf("NumWorkers = %d, want 4", p.NumWorkers())
	}
}
