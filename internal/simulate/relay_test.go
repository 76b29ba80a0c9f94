package simulate

import (
	"testing"

	"dssp/internal/core"
)

// fanoutRun simulates a run through the relay tier.
func fanoutRun(t *testing.T, policy core.PolicyConfig, workers, iters, fanout int) *RunResult {
	t.Helper()
	run, err := Run(RunConfig{
		Model:               ModelResNet50,
		Cluster:             HomogeneousCluster(workers),
		Policy:              policy,
		IterationsPerWorker: iters,
		Fanout:              fanout,
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestFanoutPreservesEveryLogicalPush pins the tier's semantic claim in the
// simulator: relayed runs apply exactly as many updates as flat ones — the
// relay batches frames, it does not eat pushes.
func TestFanoutPreservesEveryLogicalPush(t *testing.T) {
	const workers, iters = 8, 40
	for _, policy := range []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmSSP, Staleness: 3},
		{Paradigm: core.ParadigmDSSP, Staleness: 1, Range: 4},
	} {
		run := fanoutRun(t, policy, workers, iters, 4)
		if got := len(run.Updates); got != workers*iters {
			t.Errorf("%s: %d updates, want %d logical pushes", policy.Describe(), got, workers*iters)
		}
	}
}

// TestFanoutCutsRootIngress is the simulator-side headline: the same
// workload at fanout 4 lands far fewer (and smaller in aggregate) push
// frames on the root than flat, without losing updates.
func TestFanoutCutsRootIngress(t *testing.T) {
	const workers, iters = 8, 40
	policy := core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 3}
	flat := fanoutRun(t, policy, workers, iters, 0)
	tree := fanoutRun(t, policy, workers, iters, 4)

	if flat.RootIngressFrames != workers*iters {
		t.Fatalf("flat root ingress %d frames, want %d", flat.RootIngressFrames, workers*iters)
	}
	if tree.RootIngressFrames*3 > flat.RootIngressFrames {
		t.Errorf("fanout-4 root ingress %d frames vs flat %d: want >= 3x reduction",
			tree.RootIngressFrames, flat.RootIngressFrames)
	}
	if tree.RootIngressBytes*2 > flat.RootIngressBytes {
		t.Errorf("fanout-4 root ingress %d bytes vs flat %d: want >= 2x reduction",
			tree.RootIngressBytes, flat.RootIngressBytes)
	}
	if len(tree.Updates) != len(flat.Updates) {
		t.Errorf("fanout run applied %d updates, flat %d", len(tree.Updates), len(flat.Updates))
	}
}
