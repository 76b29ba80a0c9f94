package core

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestNewBSPRejectsInvalidWorkerCount(t *testing.T) {
	for _, n := range []int{0, -1, -10} {
		if _, err := NewBSP(n); err == nil {
			t.Errorf("NewBSP(%d): expected error, got nil", n)
		}
	}
}

func TestBSPReleasesNobodyUntilBarrierComplete(t *testing.T) {
	p := MustNewBSP(4)
	now := time.Now()
	for w := 0; w < 3; w++ {
		d := p.OnPush(WorkerID(w), now)
		if len(d.Release) != 0 {
			t.Fatalf("worker %d released before barrier complete: %v", w, d.Release)
		}
	}
	if got := len(p.Blocked()); got != 3 {
		t.Fatalf("expected 3 blocked workers, got %d", got)
	}
	d := p.OnPush(3, now)
	if len(d.Release) != 4 {
		t.Fatalf("expected all 4 workers released at barrier, got %v", d.Release)
	}
	if got := len(p.Blocked()); got != 0 {
		t.Fatalf("expected no blocked workers after barrier, got %d", got)
	}
}

func TestBSPMultipleRounds(t *testing.T) {
	p := MustNewBSP(2)
	now := time.Now()
	for round := 0; round < 5; round++ {
		if d := p.OnPush(0, now); len(d.Release) != 0 {
			t.Fatalf("round %d: premature release %v", round, d.Release)
		}
		d := p.OnPush(1, now)
		if len(d.Release) != 2 {
			t.Fatalf("round %d: expected barrier release of 2, got %v", round, d.Release)
		}
	}
	if p.Clock(0) != 5 || p.Clock(1) != 5 {
		t.Fatalf("expected both clocks at 5, got %d and %d", p.Clock(0), p.Clock(1))
	}
}

func TestBSPKeepsClocksEqualAtEveryBarrier(t *testing.T) {
	p := MustNewBSP(3)
	now := time.Now()
	order := []WorkerID{2, 0, 1, 1, 2, 0, 0, 1, 2}
	for i, w := range order {
		d := p.OnPush(w, now)
		barrier := (i+1)%3 == 0
		if barrier && len(d.Release) != 3 {
			t.Fatalf("push %d: expected barrier release, got %v", i, d.Release)
		}
		if !barrier && len(d.Release) != 0 {
			t.Fatalf("push %d: unexpected release %v", i, d.Release)
		}
	}
	for w := 0; w < 3; w++ {
		if p.Clock(WorkerID(w)) != 3 {
			t.Fatalf("worker %d clock = %d, want 3", w, p.Clock(WorkerID(w)))
		}
	}
}

func TestBSPStalenessBoundIsZero(t *testing.T) {
	p := MustNewBSP(4)
	if b, ok := p.StalenessBound(); !ok || b != 0 {
		t.Fatalf("BSP staleness bound = %d, %v, want 0, true", b, ok)
	}
}

func TestBSPPanicsOnOutOfRangeWorker(t *testing.T) {
	p := MustNewBSP(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range worker id")
		}
	}()
	p.OnPush(5, time.Now())
}

// TestBSPIsSSPZero pins the decision that BSP is SSP(0): on a fixed
// membership and under churn the two release the same workers in the same
// order. In the churn schedule B pushes, leaves and rejoins inside one round;
// its pre-departure push stays counted, so the round completes on C's push
// and B's next push belongs to the round after, as the rejoin rule in the
// package doc says.
func TestBSPIsSSPZero(t *testing.T) {
	const a, b, c = WorkerID(0), WorkerID(1), WorkerID(2)
	push := func(w WorkerID) func(Policy) Decision {
		return func(p Policy) Decision { return p.OnPush(w, t0) }
	}
	leave := func(w WorkerID) func(Policy) Decision {
		return func(p Policy) Decision { return p.OnLeave(w, t0) }
	}
	join := func(w WorkerID) func(Policy) Decision {
		return func(p Policy) Decision { return p.OnJoin(w, t0) }
	}
	type step struct {
		do   func(Policy) Decision
		want []WorkerID // Release, in order
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"fixed membership", []step{
			{push(a), nil},
			{push(c), nil},
			{push(b), []WorkerID{b, a, c}},
		}},
		{"churn: B pushes, leaves, rejoins; C pushes", []step{
			{push(a), nil},
			{push(b), nil},
			{leave(b), nil},
			{join(b), nil},
			{push(c), []WorkerID{c, a}},
			{push(b), nil}, // B's second push waits for the next round
			{push(a), nil},
			{push(c), []WorkerID{c, a, b}},
		}},
	} {
		bsp, ssp := Policy(MustNewBSP(3)), Policy(MustNewSSP(3, 0))
		for i, s := range tc.steps {
			if got := s.do(bsp).Release; !reflect.DeepEqual(got, s.want) {
				t.Errorf("%s: step %d: BSP released %v, want %v", tc.name, i, got, s.want)
			}
			if got := s.do(ssp).Release; !reflect.DeepEqual(got, s.want) {
				t.Errorf("%s: step %d: SSP(0) released %v, want %v", tc.name, i, got, s.want)
			}
		}
		for w := a; w <= c; w++ {
			if bsp.Clock(w) != ssp.Clock(w) {
				t.Errorf("%s: worker %d clock BSP %d, SSP(0) %d", tc.name, w, bsp.Clock(w), ssp.Clock(w))
			}
		}
	}
}

// TestPropertyBSPReleasesAtActiveMinimum drives BSP through the equivalence
// table's seeded churn schedules and checks the barrier's defining property:
// every worker a decision releases has pushed exactly as many gradients as
// the slowest active worker, so nobody leaves a round a gradient ahead.
func TestPropertyBSPReleasesAtActiveMinimum(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		p := &activeMinAuditor{Policy: MustNewBSP(n), departed: make([]bool, n), t: t, seed: seed}
		foldSchedule(fnv.New64a(), p, rng, true)
		if t.Failed() {
			return
		}
	}
}

// activeMinAuditor wraps a Policy, tracks membership, and fails the test when
// a decision releases a worker whose clock is not the active minimum.
type activeMinAuditor struct {
	Policy
	departed []bool
	t        *testing.T
	seed     int64
}

func (a *activeMinAuditor) OnPush(w WorkerID, now time.Time) Decision {
	a.departed[w] = false
	return a.audit("push", w, a.Policy.OnPush(w, now))
}

func (a *activeMinAuditor) OnJoin(w WorkerID, now time.Time) Decision {
	a.departed[w] = false
	return a.audit("join", w, a.Policy.OnJoin(w, now))
}

func (a *activeMinAuditor) OnLeave(w WorkerID, now time.Time) Decision {
	a.departed[w] = true
	return a.audit("leave", w, a.Policy.OnLeave(w, now))
}

func (a *activeMinAuditor) audit(event string, w WorkerID, d Decision) Decision {
	low := -1
	for id, gone := range a.departed {
		if c := a.Clock(WorkerID(id)); !gone && (low < 0 || c < low) {
			low = c
		}
	}
	for _, id := range d.Release {
		if c := a.Clock(id); c != low {
			a.t.Errorf("seed %d: %s of worker %d released worker %d at clock %d, active minimum %d",
				a.seed, event, w, id, c, low)
		}
	}
	return d
}
