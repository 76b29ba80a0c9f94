package simulate

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// paperArtefactsGolden is the FNV-1a hash of everything
// TestPaperArtefactsGolden renders. It was last re-pinned when BSP became
// SSP(0): the engine releases the pusher first, which moves Table I's and
// Figure 4's BSP rows and nothing else.
const paperArtefactsGolden = 0x5447cda3222f56c4

// TestPaperArtefactsGolden pins the simulator's regenerated paper artefacts
// bit for bit at 20 epochs: Table I, every Figure 4 curve with its run's
// staleness statistics, waits and update log, and the §V-C throughput
// trends.
func TestPaperArtefactsGolden(t *testing.T) {
	cfg := ExperimentConfig{Epochs: 20, Seed: 1}
	h := fnv.New64a()
	rows, err := TableI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%+v\n", rows)
	fig, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig.Results {
		fmt.Fprintf(h, "%s %d %x %v\n", r.Label, r.Finish, math.Float64bits(r.FinalAccuracy), r.Curve.Points())
		run := r.Run
		// The literal 0 stands where the pin hashed a dropped-update count
		// that no pinned paradigm ever made non-zero.
		fmt.Fprintf(h, "%x %d %d %v %d %d %v\n", math.Float64bits(run.MeanStaleness()),
			run.StalenessQuantile(0.5), run.StalenessQuantile(0.95), run.MaxStaleness(), 0, run.Finish, run.Waits)
		fmt.Fprintf(h, "%v\n", run.Updates)
	}
	trends, err := SectionVCThroughputTrends(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%+v\n", trends)
	if got := h.Sum64(); got != paperArtefactsGolden {
		t.Fatalf("paper artefacts hash %#x, want %#x", got, uint64(paperArtefactsGolden))
	}
}
