package core

import (
	"testing"
	"time"
)

// benchPolicy drives a policy through b.N push decisions with a fixed
// heterogeneous schedule.
func benchPolicy(b *testing.B, p Policy) {
	b.Helper()
	durations := make([]time.Duration, p.NumWorkers())
	for i := range durations {
		durations[i] = time.Duration(i+1) * 100 * time.Millisecond
	}
	drv := newReplayDriver(p, durations)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !drv.step() {
			b.Fatal("policy deadlocked")
		}
	}
}

func BenchmarkBSPOnPush(b *testing.B)  { benchPolicy(b, MustNewBSP(8)) }
func BenchmarkASPOnPush(b *testing.B)  { benchPolicy(b, MustNewASP(8)) }
func BenchmarkSSPOnPush(b *testing.B)  { benchPolicy(b, MustNewSSP(8, 3)) }
func BenchmarkDSSPOnPush(b *testing.B) { benchPolicy(b, MustNewDSSP(8, 3, 12)) }

func BenchmarkDSSPOnPushEnforcedBound(b *testing.B) {
	p := MustNewDSSP(8, 3, 12)
	p.EnforceUpperBound(true)
	benchPolicy(b, p)
}

// BenchmarkControllerDecision measures one Algorithm-2 decision, the
// operation the paper describes as "lightweight" enough to run on every
// fastest-worker push.
func BenchmarkControllerDecision(b *testing.B) {
	const workers = 16
	c := MustNewController(workers, 12)
	base := time.Unix(0, 0)
	for w := 0; w < workers; w++ {
		c.Observe(WorkerID(w), base.Add(time.Duration(w+1)*time.Second))
		c.Observe(WorkerID(w), base.Add(time.Duration(2*(w+1))*time.Second))
	}
	clocks := make([]int, workers)
	for w := range clocks {
		clocks[w] = workers - w
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ExtraIterations(0, clocks)
	}
}
