package main

import (
	"fmt"
	"math"
)

// check verifies one repetition's outputs and returns what is wrong with
// them; an empty result means the repetition is correct.
func check(w workload, r *repResult) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	for id := range r.Quota {
		if r.Iterations[id] != r.Quota[id] {
			fail("worker %d completed %d of %d iterations", id, r.Iterations[id], r.Quota[id])
		}
		if loss := r.FinalLoss[id]; math.IsNaN(loss) || math.IsInf(loss, 0) || loss >= w.LossCeiling {
			fail("worker %d final loss %.4f is not under %.4f", id, loss, w.LossCeiling)
		}
	}
	if got := r.Updates + r.Dropped; got != r.completed() {
		fail("root applied %d + dropped %d updates for %d worker iterations", r.Updates, r.Dropped, r.completed())
	}
	if w.MinAccuracy > 0 && r.Accuracy < w.MinAccuracy {
		fail("held-out accuracy %.3f is under %.2f", r.Accuracy, w.MinAccuracy)
	}

	// One push and one pull of every parameter per iteration, 4 bytes each
	// dense and 2 under fp16 on both legs; tensor headers are the slack.
	want, slack := 2*4*float64(r.Params), 0.01
	if w.Compression.Codec != "" {
		want, slack = want/2, 0.02
	}
	if got := r.EndToEnd["wire_bytes_per_iter"]; math.Abs(got-want) > slack*want {
		fail("wire_bytes_per_iter %.0f is not within %.0f%% of %.0f", got, slack*100, want)
	}

	if w.Topology == topoTree && r.FoldDepth < 1.9 {
		fail("relay folded %.2f pushes per forwarded partial, want >= 1.9", r.FoldDepth)
	}
	if w.Delay[0] != w.Delay[1] && r.DurationS[0] > 0 && r.DurationS[1] > 0 {
		fast := float64(r.Iterations[0]) / r.DurationS[0]
		slow := float64(r.Iterations[1]) / r.DurationS[1]
		if fast < 2*slow {
			fail("fast worker ran %.1f it/s against the slow worker's %.1f: DSSP degenerated into a barrier", fast, slow)
		}
	}
	return bad
}

// untrusted lists why a traced repetition's layer table should not be relied
// on. These are warnings, not failures: they say the instrument, not the
// program, misbehaved.
func untrusted(layers map[string]float64) []string {
	var why []string
	if iter := layers["dssp.iter_ms_mean"]; iter > 0 && layers["dssp.unaccounted_ms"] > 0.10*iter {
		why = append(why, fmt.Sprintf("dssp.unaccounted_ms is %.1f%% of the iteration (limit 10%%)",
			100*layers["dssp.unaccounted_ms"]/iter))
	}
	if o := layers["trace.overhead_share"]; math.Abs(o) > 0.05 {
		why = append(why, fmt.Sprintf("trace.overhead_share is %+.1f%% (limit ±5%%)", 100*o))
	}
	return why
}
