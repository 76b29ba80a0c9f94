package core

import (
	"testing"
	"time"
)

func TestNewDSSPValidation(t *testing.T) {
	cases := []struct {
		n, sl, r int
		wantErr  bool
	}{
		{0, 3, 12, true},
		{4, -1, 12, true},
		{4, 3, -1, true},
		{4, 3, 12, false},
		{4, 0, 0, false},
	}
	for _, tc := range cases {
		_, err := NewDSSP(tc.n, tc.sl, tc.r)
		if (err != nil) != tc.wantErr {
			t.Errorf("NewDSSP(%d,%d,%d) error = %v, wantErr %v", tc.n, tc.sl, tc.r, err, tc.wantErr)
		}
	}
}

func TestDSSPBoundsAccessors(t *testing.T) {
	p := MustNewDSSP(4, 3, 12)
	if b, ok := p.StalenessBound(); p.LowerBound() != 3 || p.UpperBound() != 15 || b != 15 || !ok {
		t.Fatalf("bounds = %d/%d/%d, want 3/15/15", p.LowerBound(), p.UpperBound(), b)
	}
}

func TestDSSPBehavesLikeSSPWithinLowerBound(t *testing.T) {
	// While every worker stays within sL of the slowest, DSSP releases
	// exactly like SSP(sL).
	dssp := MustNewDSSP(3, 2, 10)
	ssp := MustNewSSP(3, 2)
	now := time.Unix(0, 0)
	schedule := []WorkerID{0, 1, 2, 0, 1, 2, 0, 0, 1, 2, 1, 2}
	for i, w := range schedule {
		now = now.Add(time.Second)
		gotD := dssp.OnPush(w, now)
		gotS := ssp.OnPush(w, now)
		if len(gotD.Release) != len(gotS.Release) {
			t.Fatalf("push %d (worker %d): DSSP released %v, SSP released %v",
				i, w, gotD.Release, gotS.Release)
		}
	}
}

func TestDSSPFastestWorkerReceivesGrantAndRunsAhead(t *testing.T) {
	// Worker 0 is much faster than worker 1. Once worker 0 exceeds sL, the
	// controller (which has seen both workers' intervals) should grant extra
	// iterations instead of blocking it.
	p := MustNewDSSP(2, 1, 8)
	p.RecordGrants(true)
	base := time.Unix(0, 0)

	// Build up timestamp history so both workers have a measurable interval:
	// worker 1 pushes at t=10s and t=20s (interval 10s); worker 0 pushes at
	// t=11s, 12s, 21s, 22s (interval 1s around the decision point).
	p.OnPush(1, base.Add(10*time.Second)) // clocks 0/1, within sL
	p.OnPush(0, base.Add(11*time.Second)) // clocks 1/1
	p.OnPush(0, base.Add(12*time.Second)) // clocks 2/1, gap 1 == sL
	p.OnPush(1, base.Add(20*time.Second)) // clocks 2/2, worker 1 interval 10s
	p.OnPush(0, base.Add(21*time.Second)) // clocks 3/2, gap 1 == sL
	// Next push exceeds sL and worker 0 is the fastest: controller consulted.
	d := p.OnPush(0, base.Add(22*time.Second))
	if len(d.Release) != 1 || d.Release[0] != 0 {
		t.Fatalf("expected grant-driven release of worker 0, got %v", d.Release)
	}
	if p.Allowance(0) <= 0 {
		t.Fatalf("expected a positive remaining allowance, got %d", p.Allowance(0))
	}
	grants := p.Grants()
	if len(grants) != 1 || grants[0].Worker != 0 || grants[0].Extra <= 0 {
		t.Fatalf("unexpected grant history %+v", grants)
	}
}

func TestDSSPAllowanceIsConsumedPerPush(t *testing.T) {
	p := MustNewDSSP(2, 1, 4)
	p.EnforceUpperBound(true)
	base := time.Unix(0, 0)
	// Build history: worker 1 interval 10s, worker 0 interval 1s.
	p.OnPush(1, base.Add(10*time.Second)) // clocks 0/1
	p.OnPush(0, base.Add(11*time.Second)) // clocks 1/1
	p.OnPush(1, base.Add(20*time.Second)) // clocks 1/2, interval 10s
	p.OnPush(0, base.Add(12*time.Second)) // clocks 2/2, interval 1s
	p.OnPush(0, base.Add(13*time.Second)) // clocks 3/2, gap 1 == sL
	d := p.OnPush(0, base.Add(14*time.Second))
	if len(d.Release) != 1 {
		t.Fatalf("fastest worker should receive a grant, got %v", d.Release)
	}
	granted := p.Allowance(0)
	if granted <= 0 {
		t.Fatalf("expected positive allowance, got %d", granted)
	}
	// Each subsequent push consumes one unit until the allowance runs out.
	// Worker 1 never pushes again, so afterwards worker 0 either receives a
	// smaller grant (still having headroom below sU) or blocks.
	for i := 0; i < granted; i++ {
		d = p.OnPush(0, base.Add(time.Duration(15+i)*time.Second))
		if len(d.Release) != 1 {
			t.Fatalf("push %d within allowance should release, got %v", i, d.Release)
		}
		if want := granted - i - 1; p.Allowance(0) != want {
			t.Fatalf("allowance after push %d = %d, want %d", i, p.Allowance(0), want)
		}
	}
	// Keep pushing: the worker must eventually block, and never exceed
	// sU + 1 iterations ahead of worker 1.
	blocked := false
	for i := 0; i < 20 && !blocked; i++ {
		d = p.OnPush(0, base.Add(time.Duration(40+i)*time.Second))
		blocked = len(d.Release) == 0
	}
	if !blocked {
		t.Fatal("worker 0 never blocked despite worker 1 being stalled")
	}
	if spread := clockSpread(p); spread > p.UpperBound()+1 {
		t.Fatalf("spread %d exceeds sU+1 = %d", spread, p.UpperBound()+1)
	}
	if got := p.Blocked(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("expected worker 0 blocked, got %v", got)
	}
}

func TestDSSPSlowWorkerPushUnblocksWaiters(t *testing.T) {
	p := MustNewDSSP(2, 0, 0) // rmax=0 degenerates to SSP(s=0)
	now := time.Unix(0, 0)
	if d := p.OnPush(0, now.Add(time.Second)); len(d.Release) != 0 {
		t.Fatalf("worker 0 should block under sL=0, got %v", d.Release)
	}
	d := p.OnPush(1, now.Add(2*time.Second))
	if len(d.Release) != 2 {
		t.Fatalf("slow worker push should release both, got %v", d.Release)
	}
}

func TestDSSPWithZeroRangeMatchesSSP(t *testing.T) {
	// With rmax = 0 DSSP must make exactly the same decisions as SSP(sL)
	// under an arbitrary schedule.
	const workers = 4
	durations := []time.Duration{
		1 * time.Second,
		2 * time.Second,
		3 * time.Second,
		5 * time.Second,
	}
	dssp := newReplayDriver(MustNewDSSP(workers, 2, 0), durations)
	ssp := newReplayDriver(MustNewSSP(workers, 2), durations)
	const steps = 400
	if !dssp.run(steps) || !ssp.run(steps) {
		t.Fatal("replay deadlocked")
	}
	for w := 0; w < workers; w++ {
		if dssp.policy.Clock(WorkerID(w)) != ssp.policy.Clock(WorkerID(w)) {
			t.Fatalf("worker %d clock: DSSP %d, SSP %d",
				w, dssp.policy.Clock(WorkerID(w)), ssp.policy.Clock(WorkerID(w)))
		}
	}
}

func TestDSSPEnforcedSpreadNeverExceedsUpperBoundPlusOne(t *testing.T) {
	const (
		workers = 4
		sl      = 3
		rmax    = 12
	)
	durations := []time.Duration{
		500 * time.Millisecond,
		1 * time.Second,
		4 * time.Second,
		9 * time.Second,
	}
	policy := MustNewDSSP(workers, sl, rmax)
	policy.EnforceUpperBound(true)
	drv := newReplayDriver(policy, durations)
	if !drv.run(2000) {
		t.Fatal("replay deadlocked")
	}
	if drv.maxSpread > sl+rmax+1 {
		t.Fatalf("observed spread %d exceeds sU+1 = %d", drv.maxSpread, sl+rmax+1)
	}
	if drv.maxSpread <= sl {
		t.Fatalf("heterogeneous run never exceeded sL: spread %d", drv.maxSpread)
	}
}

func TestDSSPDefaultModeCanExceedUpperBoundUnderExtremeSkew(t *testing.T) {
	// In the listing-faithful default mode, a fast worker facing a very slow
	// peer keeps receiving fresh grants, so its lead can exceed sU = sL+rmax.
	// This is the behaviour that makes DSSP track ASP on heterogeneous
	// clusters (paper §V-D); the Theorem-2 mode caps it.
	durations := []time.Duration{100 * time.Millisecond, 30 * time.Second}
	uncapped := newReplayDriver(MustNewDSSP(2, 1, 4), durations)
	if !uncapped.run(400) {
		t.Fatal("replay deadlocked")
	}
	capped := MustNewDSSP(2, 1, 4)
	capped.EnforceUpperBound(true)
	cappedDrv := newReplayDriver(capped, durations)
	if !cappedDrv.run(400) {
		t.Fatal("replay deadlocked")
	}
	if cappedDrv.maxSpread > 1+4+1 {
		t.Fatalf("enforced mode exceeded bound: spread %d", cappedDrv.maxSpread)
	}
	if uncapped.maxSpread <= cappedDrv.maxSpread {
		t.Fatalf("expected the default mode to run further ahead: uncapped %d vs capped %d",
			uncapped.maxSpread, cappedDrv.maxSpread)
	}
}

func TestDSSPReducesFastWorkerWaitVersusSSPLowerBound(t *testing.T) {
	// In a strongly heterogeneous cluster, DSSP with range [sL, sL+rmax]
	// should make the fastest worker wait less than SSP pinned at sL.
	durations := []time.Duration{
		1 * time.Second, // fast worker
		6 * time.Second, // slow worker
	}
	const steps = 600
	dssp := newReplayDriver(MustNewDSSP(2, 1, 10), durations)
	ssp := newReplayDriver(MustNewSSP(2, 1), durations)
	if !dssp.run(steps) || !ssp.run(steps) {
		t.Fatal("replay deadlocked")
	}
	if dssp.waitTotal[0] >= ssp.waitTotal[0] {
		t.Fatalf("DSSP fast-worker wait %v not smaller than SSP %v",
			dssp.waitTotal[0], ssp.waitTotal[0])
	}
}

func TestDSSPIterationThroughputAtLeastSSPLowerBound(t *testing.T) {
	// Same wall-clock horizon: DSSP should complete at least as many total
	// pushes as SSP with s = sL because it only relaxes synchronization.
	durations := []time.Duration{
		1 * time.Second,
		2 * time.Second,
		7 * time.Second,
	}
	horizon := time.Unix(0, 0).Add(30 * time.Minute)

	run := func(p Policy) int {
		drv := newReplayDriver(p, durations)
		for drv.step() {
			if drv.now.After(horizon) {
				break
			}
		}
		total := 0
		for w := 0; w < p.NumWorkers(); w++ {
			total += p.Clock(WorkerID(w))
		}
		return total
	}
	dsspPushes := run(MustNewDSSP(3, 2, 10))
	sspPushes := run(MustNewSSP(3, 2))
	if dsspPushes < sspPushes {
		t.Fatalf("DSSP pushed %d times, SSP(sL) pushed %d", dsspPushes, sspPushes)
	}
}

func TestDSSPGrantHistoryDisabledByDefault(t *testing.T) {
	p := MustNewDSSP(2, 0, 4)
	base := time.Unix(0, 0)
	p.OnPush(1, base.Add(10*time.Second))
	p.OnPush(0, base.Add(11*time.Second))
	p.OnPush(0, base.Add(12*time.Second))
	if len(p.Grants()) != 0 {
		t.Fatal("grant history should be empty when recording is disabled")
	}
}
