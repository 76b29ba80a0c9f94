package experiment

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dssp/internal/simulate"
)

// timingMatrixGolden is the FNV-1a hash of every cell TestTimingMatrixGolden
// renders. It was last re-pinned when BSP became SSP(0), which moves the
// BSP cells and no others.
const timingMatrixGolden = 0xf4fe396607ed4dd2

// TestTimingMatrixGolden pins dsspsim -experiment's two simulator sweeps bit
// for bit at Seed 1, Trials 2: the default paradigms on the default
// hostile-network matrix, and the 16-worker calm sweep over fanouts 0, 4
// and 8.
func TestTimingMatrixGolden(t *testing.T) {
	h := fnv.New64a()
	for _, cfg := range []TimingMatrixConfig{
		{Trials: 2, Seed: 1},
		{
			Cluster:   simulate.HomogeneousCluster(16),
			Scenarios: []NetworkScenario{CalmNetwork()},
			Fanouts:   []int{0, 4, 8},
			Trials:    2,
			Seed:      1,
		},
	} {
		cells, err := TimingMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			fmt.Fprintf(h, "%s %s %d %d %x %x %x %x %x\n", c.Scenario, c.Paradigm, c.Fanout, c.MeanFinish,
				// The literal 0 stands where the pin hashed a per-cell drop
				// count that no pinned paradigm ever made non-zero.
				math.Float64bits(c.Throughput), math.Float64bits(c.MeanStaleness), math.Float64bits(0),
				math.Float64bits(c.MeanRootFrames), math.Float64bits(c.MeanRootBytes))
		}
	}
	if got := h.Sum64(); got != timingMatrixGolden {
		t.Fatalf("timing matrix hash %#x, want %#x", got, uint64(timingMatrixGolden))
	}
}
