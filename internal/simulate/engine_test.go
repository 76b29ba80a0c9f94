package simulate

import (
	"reflect"
	"testing"
	"time"

	"dssp/internal/core"
)

// quickRun simulates a small run with the given policy on the given cluster.
func quickRun(t *testing.T, model ModelProfile, cluster ClusterSpec, policy core.PolicyConfig, iters int) *RunResult {
	t.Helper()
	run, err := Run(RunConfig{
		Model:               model,
		Cluster:             cluster,
		Policy:              policy,
		IterationsPerWorker: iters,
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestStalenessStatistics: the staleness statistics read off the update log
// clamp a negative staleness to 0, sum as integers, and take the smallest
// value covering a q share of the updates; an empty log reads 0 throughout.
func TestStalenessStatistics(t *testing.T) {
	run := &RunResult{}
	if run.MeanStaleness() != 0 || run.MaxStaleness() != 0 || run.StalenessQuantile(0.5) != 0 {
		t.Fatal("an empty run should report zeros")
	}
	for _, v := range []int{0, 1, 1, 2, 3, 3, 3, 10, -4} {
		run.Updates = append(run.Updates, UpdateEvent{Staleness: v})
	}
	if want := float64(0+1+1+2+3+3+3+10+0) / 9; run.MeanStaleness() != want {
		t.Fatalf("mean %v, want %v", run.MeanStaleness(), want)
	}
	if run.MaxStaleness() != 10 {
		t.Fatalf("max %d, want 10", run.MaxStaleness())
	}
	for q, want := range map[float64]int{-1: 0, 0: 0, 0.2: 0, 0.5: 2, 0.95: 10, 1: 10, 2: 10} {
		if got := run.StalenessQuantile(q); got != want {
			t.Errorf("quantile %v = %d, want %d", q, got, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	valid := RunConfig{
		Model:               ModelResNet50,
		Cluster:             HomogeneousCluster(2),
		Policy:              core.PolicyConfig{Paradigm: core.ParadigmASP},
		IterationsPerWorker: 10,
	}
	cases := []func(*RunConfig){
		func(c *RunConfig) { c.Cluster.Workers = nil },
		func(c *RunConfig) { c.IterationsPerWorker = 0 },
		func(c *RunConfig) { c.Cluster.LinkBandwidth = 0 },
		func(c *RunConfig) { c.Cluster.ApplyRate = 0 },
		func(c *RunConfig) { c.Policy = core.PolicyConfig{Paradigm: core.Paradigm(99)} },
		func(c *RunConfig) { c.Links = map[int]LinkModel{2: LinkFlapping()} },
		func(c *RunConfig) { c.Links = map[int]LinkModel{-1: {Multiplier: 4, MeanBad: time.Hour}} },
	}
	for i, mutate := range cases {
		cfg := valid
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunAppliesEveryPlannedUpdate(t *testing.T) {
	const iters = 50
	for _, paradigm := range []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmASP},
		{Paradigm: core.ParadigmSSP, Staleness: 3},
		{Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12},
	} {
		run := quickRun(t, ModelResNet50, HomogeneousCluster(4), paradigm, iters)
		if got := len(run.Updates); got != iters*4 {
			t.Errorf("%s: applied %d updates, want %d", paradigm.Describe(), got, iters*4)
		}
		if run.Finish <= 0 {
			t.Errorf("%s: finish time not recorded", paradigm.Describe())
		}
	}
}

func TestRunUpdatesAreTimeOrdered(t *testing.T) {
	run := quickRun(t, ModelAlexNetSmall, HomogeneousCluster(4),
		core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 5}, 100)
	for i := 1; i < len(run.Updates); i++ {
		if run.Updates[i].At < run.Updates[i-1].At {
			t.Fatalf("updates out of order at %d", i)
		}
	}
	if last := run.Updates[len(run.Updates)-1].At; last > run.Finish {
		t.Fatalf("last update at %v after finish %v", last, run.Finish)
	}
}

func TestRunBSPStalenessStaysWithinRound(t *testing.T) {
	run := quickRun(t, ModelResNet50, HomogeneousCluster(4),
		core.PolicyConfig{Paradigm: core.ParadigmBSP}, 60)
	// Within a barrier round the k-th applied update sees at most k-1 newer
	// updates, so staleness is bounded by workers-1.
	if run.MaxStaleness() > 3 {
		t.Fatalf("BSP max staleness %d exceeds workers-1", run.MaxStaleness())
	}
	if !run.Bounded {
		t.Fatal("BSP must be reported as bounded")
	}
}

// TestRunBSPIsSSPZero: BSP is SSP(0) in the policy engine, so the simulator
// must cost the two identically — same updates, waits and finish time.
func TestRunBSPIsSSPZero(t *testing.T) {
	for _, cluster := range []ClusterSpec{HomogeneousCluster(4), HeterogeneousCluster()} {
		bsp := quickRun(t, ModelResNet50, cluster, core.PolicyConfig{Paradigm: core.ParadigmBSP}, 60)
		ssp := quickRun(t, ModelResNet50, cluster, core.PolicyConfig{Paradigm: core.ParadigmSSP}, 60)
		bsp.Label = ssp.Label
		if !reflect.DeepEqual(bsp, ssp) {
			t.Errorf("%d workers: BSP finished at %v with %d updates, SSP(0) at %v with %d",
				cluster.NumWorkers(), bsp.Finish, len(bsp.Updates), ssp.Finish, len(ssp.Updates))
		}
	}
}

func TestRunASPIsUnboundedAndNeverWaitsForPeers(t *testing.T) {
	run := quickRun(t, ModelResNet110, HeterogeneousCluster(),
		core.PolicyConfig{Paradigm: core.ParadigmASP}, 200)
	if run.Bounded {
		t.Fatal("ASP must be reported as unbounded")
	}
	// Under ASP the only "waiting" is server processing latency, identical
	// for both workers; synchronization never adds to it, so the fast worker
	// cannot wait much more than the slow one.
	fast, slow := run.Waits[0], run.Waits[1]
	if fast > slow*2 {
		t.Fatalf("ASP fast-worker wait %v is disproportionate to slow-worker wait %v", fast, slow)
	}
}

func TestRunHeterogeneousSSPThrottlesFastWorker(t *testing.T) {
	ssp := quickRun(t, ModelResNet110, HeterogeneousCluster(),
		core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 3}, 300)
	asp := quickRun(t, ModelResNet110, HeterogeneousCluster(),
		core.PolicyConfig{Paradigm: core.ParadigmASP}, 300)
	// The fast worker (index 0, GTX1080Ti) must wait far longer under SSP
	// than under ASP.
	if ssp.Waits[0] < 3*asp.Waits[0] {
		t.Fatalf("SSP fast-worker wait %v not substantially larger than ASP %v", ssp.Waits[0], asp.Waits[0])
	}
}

func TestRunHeterogeneousDSSPTracksASPNotSSP(t *testing.T) {
	// The paper's §V-D observation: on the mixed-GPU cluster DSSP's fast
	// worker is barely throttled (close to ASP), unlike SSP.
	cluster := HeterogeneousCluster()
	const iters = 400
	asp := quickRun(t, ModelResNet110, cluster, core.PolicyConfig{Paradigm: core.ParadigmASP}, iters)
	dssp := quickRun(t, ModelResNet110, cluster, core.PolicyConfig{Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12}, iters)
	ssp := quickRun(t, ModelResNet110, cluster, core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 15}, iters)

	if dssp.Waits[0] > 2*asp.Waits[0] {
		t.Fatalf("DSSP fast-worker wait %v far exceeds ASP %v", dssp.Waits[0], asp.Waits[0])
	}
	if dssp.Waits[0] > ssp.Waits[0]/2 {
		t.Fatalf("DSSP fast-worker wait %v not well below SSP(15) %v", dssp.Waits[0], ssp.Waits[0])
	}
}

func TestRunEnforcedDSSPBehavesLikeBoundedSSP(t *testing.T) {
	cluster := HeterogeneousCluster()
	const iters = 400
	enforced := quickRun(t, ModelResNet110, cluster,
		core.PolicyConfig{Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12, EnforceBound: true}, iters)
	ssp := quickRun(t, ModelResNet110, cluster,
		core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 15}, iters)
	// In the Theorem-2 mode the fast worker is throttled to the same order
	// of waiting as SSP at the upper threshold.
	if enforced.Waits[0] < ssp.Waits[0]/4 {
		t.Fatalf("enforced DSSP wait %v suspiciously small versus SSP(15) %v", enforced.Waits[0], ssp.Waits[0])
	}
}

func TestRunCommunicationBoundVsComputeBoundWallClock(t *testing.T) {
	// §V-C: on the FC-heavy AlexNet, synchronous bursts make BSP the slowest
	// paradigm; on the compute-heavy ResNets the per-push server cost makes
	// the asynchronous paradigms slower, so BSP finishes first.
	const iters = 200
	cluster := HomogeneousCluster(4)

	alexBSP := quickRun(t, ModelAlexNetSmall, cluster, core.PolicyConfig{Paradigm: core.ParadigmBSP}, iters)
	alexASP := quickRun(t, ModelAlexNetSmall, cluster, core.PolicyConfig{Paradigm: core.ParadigmASP}, iters)
	if alexBSP.Finish <= alexASP.Finish {
		t.Fatalf("AlexNet: BSP (%v) should finish later than ASP (%v)", alexBSP.Finish, alexASP.Finish)
	}

	resBSP := quickRun(t, ModelResNet110, cluster, core.PolicyConfig{Paradigm: core.ParadigmBSP}, iters)
	resASP := quickRun(t, ModelResNet110, cluster, core.PolicyConfig{Paradigm: core.ParadigmASP}, iters)
	if resBSP.Finish >= resASP.Finish {
		t.Fatalf("ResNet-110: BSP (%v) should finish before ASP (%v)", resBSP.Finish, resASP.Finish)
	}
}

func TestRunHeterogeneousFinishDominatedBySlowWorker(t *testing.T) {
	// The GTX1060 worker determines completion of the fixed per-worker quota
	// regardless of paradigm, so finish times are within ~10% of each other.
	cluster := HeterogeneousCluster()
	const iters = 300
	var times []time.Duration
	for _, p := range []core.PolicyConfig{
		{Paradigm: core.ParadigmBSP},
		{Paradigm: core.ParadigmASP},
		{Paradigm: core.ParadigmDSSP, Staleness: 3, Range: 12},
	} {
		times = append(times, quickRun(t, ModelResNet110, cluster, p, iters).Finish)
	}
	for _, d := range times[1:] {
		ratio := float64(d) / float64(times[0])
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("finish times diverge too much: %v", times)
		}
	}
}

func TestPaperEpochIterations(t *testing.T) {
	if got := PaperEpochIterations(300, 4); got != 97*300 {
		t.Fatalf("4-worker iterations = %d, want %d", got, 97*300)
	}
	if got := PaperEpochIterations(1, 1000); got < 1 {
		t.Fatal("iterations must be at least 1 per epoch")
	}
}

func TestGPUAndModelProfiles(t *testing.T) {
	if GPUP100.Speed <= GPUGTX1080Ti.Speed || GPUGTX1080Ti.Speed <= GPUGTX1060.Speed {
		t.Fatal("GPU speed ordering wrong")
	}
	if !ModelAlexNetSmall.HasFullyConnected || ModelResNet50.HasFullyConnected || ModelResNet110.HasFullyConnected {
		t.Fatal("fully-connected flags wrong")
	}
	// The compute/communication contrast at the heart of §V-C: AlexNet moves
	// more bytes per unit of compute than the ResNets.
	alexRatio := float64(ModelAlexNetSmall.Bytes()) / ModelAlexNetSmall.ComputeTime.Seconds()
	resRatio := float64(ModelResNet110.Bytes()) / ModelResNet110.ComputeTime.Seconds()
	if alexRatio < 10*resRatio {
		t.Fatalf("AlexNet comm/compute ratio %v not much larger than ResNet-110 %v", alexRatio, resRatio)
	}
	if HomogeneousCluster(4).NumWorkers() != 4 || HeterogeneousCluster().NumWorkers() != 2 {
		t.Fatal("cluster sizes wrong")
	}
}

// eventBase is a small homogeneous SSP run for link-model tests.
func eventBase() RunConfig {
	return RunConfig{
		Model:               ModelProfile{Name: "tiny", Params: 1e5, ComputeTime: 10 * time.Millisecond, Layers: 4},
		Cluster:             HomogeneousCluster(4),
		Policy:              core.PolicyConfig{Paradigm: core.ParadigmSSP, Staleness: 2},
		IterationsPerWorker: 40,
		Seed:                7,
	}
}

// TestHostileLinkSlowsTheRun: a flapping or partitioned link on one worker
// must cost simulated wall-clock versus calm links.
func TestHostileLinkSlowsTheRun(t *testing.T) {
	base, err := Run(eventBase())
	if err != nil {
		t.Fatal(err)
	}
	for name, model := range map[string]LinkModel{
		"slow":        {Multiplier: 4, MeanBad: time.Hour},
		"partitioned": LinkPartitioned(),
	} {
		cfg := eventBase()
		cfg.Links = map[int]LinkModel{0: model}
		hostile, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hostile.Finish <= base.Finish {
			t.Errorf("%s link: finish %v not later than calm baseline %v", name, hostile.Finish, base.Finish)
		}
	}
}
