package core

import (
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
	if p.Rounds() != 1 {
		t.Fatalf("expected 1 completed round, got %d", p.Rounds())
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
	if p.Rounds() != 5 {
		t.Fatalf("expected 5 rounds, got %d", p.Rounds())
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

func TestBSPName(t *testing.T) {
	if got := MustNewBSP(4).Name(); got != "BSP(workers=4)" {
		t.Fatalf("unexpected name %q", got)
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

// TestBSPIsNotSSPZero records why BSP is its own barrier although both it and
// SSP(0) report StalenessBound() = 0. With fixed membership the two release
// the same sets (in a different order). Under churn they do not: a worker
// that pushed, left and rejoined inside one round owes the barrier a second
// push, while a clock rule sees it rejoin at the slowest clock and lets its
// peers go. Folding BSP into the engine is therefore a behaviour change, not
// a refactor.
func TestBSPIsNotSSPZero(t *testing.T) {
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
		do       func(Policy) Decision
		bsp, ssp []WorkerID // Release, in order
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"fixed membership: same set, ascending ids vs pusher first", []step{
			{push(a), nil, nil},
			{push(c), nil, nil},
			{push(b), []WorkerID{a, b, c}, []WorkerID{b, a, c}},
		}},
		{"churn: B pushes, leaves, rejoins; C pushes", []step{
			{push(a), nil, nil},
			{push(b), nil, nil},
			{leave(b), nil, nil},
			{join(b), nil, nil},
			{push(c), nil, []WorkerID{c, a}}, // BSP holds A and C for B's second push
			{push(b), []WorkerID{a, b, c}, nil},
		}},
	} {
		bsp, ssp := Policy(MustNewBSP(3)), Policy(MustNewSSP(3, 0))
		for i, s := range tc.steps {
			if got := s.do(bsp).Release; !reflect.DeepEqual(got, s.bsp) {
				t.Errorf("%s: step %d: BSP released %v, want %v", tc.name, i, got, s.bsp)
			}
			if got := s.do(ssp).Release; !reflect.DeepEqual(got, s.ssp) {
				t.Errorf("%s: step %d: SSP(0) released %v, want %v", tc.name, i, got, s.ssp)
			}
		}
	}
}
