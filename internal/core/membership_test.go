package core

import (
	"testing"
	"time"
)

var t0 = time.Unix(0, 0)

// releasedSet collects a decision's release list into a set.
func releasedSet(d Decision) map[WorkerID]bool {
	out := make(map[WorkerID]bool, len(d.Release))
	for _, id := range d.Release {
		out[id] = true
	}
	return out
}

func TestBSPLeaveCompletesBarrier(t *testing.T) {
	p := MustNewBSP(3)
	if d := p.OnPush(0, t0); len(d.Release) != 0 {
		t.Fatalf("premature release %v", d.Release)
	}
	if d := p.OnPush(1, t0); len(d.Release) != 0 {
		t.Fatalf("premature release %v", d.Release)
	}
	// Worker 2 crashes before pushing: the two waiters form a complete
	// barrier of the shrunken population and must be released.
	d := p.OnLeave(2, t0)
	got := releasedSet(d)
	if !got[0] || !got[1] || len(got) != 2 {
		t.Fatalf("leave released %v, want workers 0 and 1", d.Release)
	}
	// Subsequent rounds run with two workers.
	if d := p.OnPush(0, t0); len(d.Release) != 0 {
		t.Fatalf("premature release %v", d.Release)
	}
	if d := p.OnPush(1, t0); len(releasedSet(d)) != 2 {
		t.Fatalf("two-worker barrier released %v", d.Release)
	}
}

func TestBSPLeaveOfComputingWorkerCompletesBarrier(t *testing.T) {
	p := MustNewBSP(2)
	p.OnPush(0, t0)
	// Worker 1 crashes mid-compute (it never pushed). Worker 0 must not wait
	// forever.
	d := p.OnLeave(1, t0)
	if got := releasedSet(d); !got[0] {
		t.Fatalf("leave released %v, want worker 0", d.Release)
	}
}

func TestBSPJoinGrowsBarrier(t *testing.T) {
	p := MustNewBSP(3)
	p.OnLeave(2, t0)
	p.OnPush(0, t0)
	p.OnJoin(2, t0)
	// Barrier now needs all three again.
	if d := p.OnPush(1, t0); len(d.Release) != 0 {
		t.Fatalf("barrier completed without rejoined worker: %v", d.Release)
	}
	if d := p.OnPush(2, t0); len(releasedSet(d)) != 3 {
		t.Fatalf("full barrier released %v", d.Release)
	}
}

func TestSSPLeaveAdvancesMinimum(t *testing.T) {
	p := MustNewSSP(2, 1)
	// Worker 0 runs ahead until it blocks at the bound.
	p.OnPush(0, t0)
	p.OnPush(0, t0)
	d := p.OnPush(0, t0)
	if len(d.Release) != 0 {
		t.Fatalf("worker 0 beyond the bound was released: %v", d.Release)
	}
	if got := p.Blocked(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("blocked = %v, want [0]", got)
	}
	// The slowest worker crashes; the survivor is alone, within any bound of
	// itself, and must resume.
	d = p.OnLeave(1, t0)
	if got := releasedSet(d); !got[0] {
		t.Fatalf("leave released %v, want worker 0", d.Release)
	}
	if len(p.Blocked()) != 0 {
		t.Fatalf("blocked = %v after release", p.Blocked())
	}
}

func TestSSPJoinResetsClockToMinimum(t *testing.T) {
	p := MustNewSSP(3, 1)
	p.OnLeave(2, t0)
	for i := 0; i < 5; i++ {
		p.OnPush(0, t0)
		p.OnPush(1, t0)
	}
	p.OnJoin(2, t0)
	if got, want := p.Clock(2), 5; got != want {
		t.Fatalf("rejoined clock = %d, want the active minimum %d", got, want)
	}
	// The rejoined worker must not be treated as 5 iterations behind: the
	// others keep running.
	d := p.OnPush(0, t0)
	if got := releasedSet(d); !got[0] {
		t.Fatalf("worker 0 blocked by a rejoined worker: %v", d.Release)
	}
}

func TestDSSPLeaveUnblocksWaiters(t *testing.T) {
	p := MustNewDSSP(2, 1, 0) // rmax=0: behaves like SSP with s=1
	p.OnPush(0, t0)
	p.OnPush(0, t0)
	d := p.OnPush(0, t0)
	if len(d.Release) != 0 {
		t.Fatalf("worker 0 beyond the bound was released: %v", d.Release)
	}
	d = p.OnLeave(1, t0)
	if got := releasedSet(d); !got[0] {
		t.Fatalf("leave released %v, want worker 0", d.Release)
	}
}

func TestDSSPLeaveForfeitsAllowance(t *testing.T) {
	p := MustNewDSSP(2, 0, 3)
	// Build up timing history so the controller can grant.
	now := t0
	for i := 0; i < 6; i++ {
		now = now.Add(10 * time.Millisecond)
		p.OnPush(0, now)
		now = now.Add(10 * time.Millisecond)
		p.OnPush(1, now)
	}
	p.OnLeave(0, now)
	if got := p.Allowance(0); got != 0 {
		t.Fatalf("allowance after leave = %d, want 0", got)
	}
}

func TestASPLeaveJoinAreHarmless(t *testing.T) {
	p := MustNewASP(2)
	p.OnPush(0, t0)
	if d := p.OnLeave(1, t0); len(d.Release) != 0 {
		t.Fatalf("ASP leave released %v", d.Release)
	}
	if d := p.OnJoin(1, t0); len(d.Release) != 0 {
		t.Fatalf("ASP join released %v", d.Release)
	}
	if d := p.OnPush(1, t0); !releasedSet(d)[1] {
		t.Fatalf("ASP push not released: %v", d.Release)
	}
}

func TestImplicitRejoinOnPush(t *testing.T) {
	// A push from a worker reported departed implicitly rejoins it on every
	// paradigm: the policies stay self-consistent even if a join notification
	// is lost.
	policies := map[string]Policy{
		"BSP":  MustNewBSP(2),
		"ASP":  MustNewASP(2),
		"SSP":  MustNewSSP(2, 1),
		"DSSP": MustNewDSSP(2, 1, 2),
	}
	for label, p := range policies {
		p.OnLeave(1, t0)
		p.OnPush(1, t0) // must not panic or corrupt state
		p.OnPush(0, t0)
		d := p.OnPush(1, t0)
		_ = d
		if got := p.NumWorkers(); got != 2 {
			t.Fatalf("%s: NumWorkers = %d", label, got)
		}
	}
}

func TestLeaveIsIdempotent(t *testing.T) {
	p := MustNewBSP(2)
	p.OnPush(0, t0)
	d1 := p.OnLeave(1, t0)
	d2 := p.OnLeave(1, t0)
	if len(d1.Release) == 0 {
		t.Fatalf("first leave released nothing")
	}
	if len(d2.Release) != 0 {
		t.Fatalf("second leave released %v", d2.Release)
	}
}
