package ps

import (
	"math"
	"testing"

	"dssp/internal/obs"
	"dssp/internal/tensor"
)

// testGuard builds a guard counting onto a private registry.
func testGuard(cfg GuardConfig, workers int) *guard {
	return newGuard(cfg, workers, newServerMetrics(obs.NewRegistry(), workers))
}

func gradsOf(vals ...float32) []*tensor.Tensor {
	return []*tensor.Tensor{tensor.FromSlice(append([]float32(nil), vals...), len(vals))}
}

func TestGuardDisabledIsNil(t *testing.T) {
	if g := testGuard(GuardConfig{}, 4); g != nil {
		t.Fatal("disabled guard must be nil")
	}
}

// TestGuardNormOutlier walks the full strike sequence: honest pushes build
// the baseline, outliers are flagged and dropped, and the third strike
// evicts.
func TestGuardNormOutlier(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 2)

	// Build a baseline of honest norms (needs >= 4 samples).
	for i := 0; i < 6; i++ {
		g.observePull(0)
		if v := g.checkPush(0, 0, 0, gradsOf(1, 1)); v.drop || v.evict {
			t.Fatalf("honest push %d flagged: %+v", i, v)
		}
	}

	// An 8x-median outlier (norm ~ sqrt(2)*100 vs median sqrt(2)).
	for strike := 1; strike <= DefaultMaxStrikes; strike++ {
		g.observePull(1)
		v := g.checkPush(1, 0, 0, gradsOf(100, 100))
		if !v.drop {
			t.Fatalf("outlier push %d not dropped", strike)
		}
		wantEvict := strike == DefaultMaxStrikes
		if v.evict != wantEvict {
			t.Fatalf("strike %d: evict=%v, want %v", strike, v.evict, wantEvict)
		}
	}

	st := g.stats()
	if st.Flags[1] != DefaultMaxStrikes || st.Flags[0] != 0 {
		t.Fatalf("flags %v, want worker 1 = %d", st.Flags, DefaultMaxStrikes)
	}
	if len(st.Evicted) != 1 || st.Evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", st.Evicted)
	}
	if st.DroppedPushes != DefaultMaxStrikes {
		t.Fatalf("dropped %d, want %d", st.DroppedPushes, DefaultMaxStrikes)
	}
}

// TestGuardOutlierDoesNotPoisonBaseline: flagged pushes must not enter the
// norm ring, so an attacker cannot escalate its magnitude gradually by
// dragging the median upward with accepted outliers.
func TestGuardOutlierDoesNotPoisonBaseline(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 1)
	for i := 0; i < 6; i++ {
		g.observePull(0)
		g.checkPush(0, 0, 0, gradsOf(1))
	}
	for i := 0; i < 10; i++ {
		g.observePull(0)
		if v := g.checkPush(0, 0, 0, gradsOf(50)); !v.drop {
			t.Fatalf("outlier %d accepted: baseline was poisoned", i)
		}
	}
}

func TestGuardLyingClock(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 1)
	g.observePull(0)
	// Claiming base 10 when the server has only reserved 5 is impossible.
	if v := g.checkPush(0, 10, 5, gradsOf(1)); !v.drop {
		t.Fatal("future-version push not dropped")
	}
	g.observePull(0)
	// Staleness in the other direction is normal.
	if v := g.checkPush(0, 3, 5, gradsOf(1)); v.drop {
		t.Fatal("stale-but-honest push dropped")
	}
}

func TestGuardPushFlood(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 1)
	g.observePull(0)
	for i := 0; i < DefaultFloodSlack; i++ {
		if v := g.checkPush(0, 0, 0, gradsOf(1)); v.drop {
			t.Fatalf("push %d within slack dropped", i)
		}
	}
	if v := g.checkPush(0, 0, 0, gradsOf(1)); !v.drop {
		t.Fatal("flood push not dropped")
	}
	// A pull resets the flood counter.
	g.observePull(0)
	if v := g.checkPush(0, 0, 0, gradsOf(1)); v.drop {
		t.Fatal("post-pull push dropped")
	}
}

func TestGuardNaNPush(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 1)
	g.observePull(0)
	// NaN needs no baseline: flagged from the very first push.
	if v := g.checkPush(0, 0, 0, gradsOf(float32(math.NaN()))); !v.drop {
		t.Fatal("NaN push not dropped")
	}
	g.observePull(0)
	if v := g.checkPush(0, 0, 0, gradsOf(float32(math.Inf(-1)))); !v.drop {
		t.Fatal("Inf push not dropped")
	}
}

// TestGuardNilGrads: a decode failure screens clocks only.
func TestGuardNilGrads(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 1)
	g.observePull(0)
	if v := g.checkPush(0, 0, 0, nil); v.drop {
		t.Fatal("nil grads with honest clock dropped")
	}
	g.observePull(0)
	if v := g.checkPush(0, 99, 0, nil); !v.drop {
		t.Fatal("nil grads with lying clock not dropped")
	}
}

// TestGuardFutureVersionStrike: a claim at the reserved version is honest,
// one past it is a lie, and the strike lands on the liar alone.
func TestGuardFutureVersionStrike(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 2)
	g.observePull(0)
	if v := g.checkPush(0, 10, 10, gradsOf(1)); v.drop {
		t.Fatalf("claim at the reserved version dropped: %+v", v)
	}
	g.observePull(0)
	if v := g.checkPush(0, 11, 10, gradsOf(1)); !v.drop || v.evict {
		t.Fatalf("claim one past the reserved version: verdict %+v, want drop and no eviction", v)
	}
	if st := g.stats(); st.Flags[0] != 1 || st.Flags[1] != 0 {
		t.Fatalf("flags %v, want [1 0]", st.Flags)
	}
}

// TestGuardFloodStrikeResetsOnPull: the (slack+1)-th push without a pull is
// one strike, and a pull starts the count again.
func TestGuardFloodStrikeResetsOnPull(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 1)
	g.observePull(0)
	for i := 0; i < DefaultFloodSlack; i++ {
		g.checkPush(0, 0, 0, gradsOf(1))
	}
	if v := g.checkPush(0, 0, 0, gradsOf(1)); !v.drop {
		t.Fatal("flood push not dropped")
	}
	if st := g.stats(); st.Flags[0] != 1 {
		t.Fatalf("flags %v, want [1]", st.Flags)
	}
	g.observePull(0)
	for i := 0; i < DefaultFloodSlack; i++ {
		if v := g.checkPush(0, 0, 0, gradsOf(1)); v.drop {
			t.Fatalf("push %d after the pull dropped", i)
		}
	}
	if st := g.stats(); st.Flags[0] != 1 {
		t.Fatalf("flags %v after the pull, want [1]", st.Flags)
	}
}

// TestGuardLieAndFloodStrikes: one push that both lies and floods earns two
// strikes at once.
func TestGuardLieAndFloodStrikes(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 1)
	g.observePull(0)
	for i := 0; i < DefaultFloodSlack; i++ {
		g.checkPush(0, 0, 0, gradsOf(1))
	}
	if v := g.checkPush(0, 100, 0, gradsOf(1)); !v.drop || v.evict {
		t.Fatalf("verdict %+v, want drop and no eviction", v)
	}
	if st := g.stats(); st.Flags[0] != 2 {
		t.Fatalf("flags %v, want [2]", st.Flags)
	}
}

// TestGuardClaimedBaseCannotSteerBaseline: the baseline is the whole ring,
// whatever base a push claims. A worker claiming base 0 against honest pushes
// at a recent base, sending each magnitude three times and then raising it
// 7×, must be flagged before any of its pushes is accepted above
// DefaultNormFactor times the honest median.
func TestGuardClaimedBaseCannotSteerBaseline(t *testing.T) {
	const honestBase = 100
	g := testGuard(GuardConfig{Enabled: true}, 2)
	g.observeRegister(0)
	g.observeRegister(1)
	for i := 0; i < normHistory; i++ {
		g.observePull(0)
		if v := g.checkPush(0, honestBase, honestBase, gradsOf(1)); v.drop {
			t.Fatalf("honest push %d flagged", i)
		}
	}
	norm := float32(1)
	for i := 0; i < 12; i++ {
		g.observePull(1)
		v := g.checkPush(1, 0, honestBase, gradsOf(norm))
		if v.drop {
			if st := g.stats(); st.Flags[1] != 1 || st.Flags[0] != 0 {
				t.Fatalf("flags %v, want [0 1]", st.Flags)
			}
			return
		}
		if norm > DefaultNormFactor {
			t.Fatalf("push %d accepted at norm %v, over %v× the honest median 1", i, norm, DefaultNormFactor)
		}
		if i%3 == 2 {
			norm *= 7
		}
	}
	t.Fatal("escalating worker never flagged")
}

// TestGuardColdFirstPush: a slot's first push after registering is not
// judged by norm and does not enter the baseline; the exemption is one push
// per slot, not one per registration.
func TestGuardColdFirstPush(t *testing.T) {
	g := testGuard(GuardConfig{Enabled: true}, 2)
	g.observeRegister(0)
	for i := 0; i < 8; i++ {
		g.observePull(0)
		g.checkPush(0, 20, 20, gradsOf(1))
	}
	g.observeRegister(1)
	g.observePull(1)
	ring := len(g.norms)
	if v := g.checkPush(1, 0, 20, gradsOf(40)); v.drop {
		t.Fatalf("cold first push flagged: %+v", v)
	}
	if len(g.norms) != ring {
		t.Fatalf("%d norms in the ring after the cold push, want the %d before it", len(g.norms), ring)
	}
	g.observePull(1)
	if v := g.checkPush(1, 20, 20, gradsOf(40)); !v.drop {
		t.Fatal("second push at 40× the honest median accepted: the cold push entered the baseline or was not the only exemption")
	}
	g.observeRegister(1)
	g.observePull(1)
	if v := g.checkPush(1, 20, 20, gradsOf(40)); !v.drop {
		t.Fatal("re-registering granted a second cold push")
	}
}
