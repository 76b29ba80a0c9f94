package experiment

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// timingMatrixGolden is the FNV-1a hash of every cell TestTimingMatrixGolden
// renders.
const timingMatrixGolden = 0x9fef883a062e785f

// TestTimingMatrixGolden pins dsspsim -experiment's simulator sweep bit for
// bit at Seed 1, Trials 2: the default paradigms on the default
// hostile-network matrix.
func TestTimingMatrixGolden(t *testing.T) {
	h := fnv.New64a()
	cells, err := TimingMatrix(TimingMatrixConfig{Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		fmt.Fprintf(h, "%s %s %d %x %x\n", c.Scenario, c.Paradigm, c.MeanFinish,
			math.Float64bits(c.Throughput), math.Float64bits(c.MeanStaleness))
	}
	if got := h.Sum64(); got != timingMatrixGolden {
		t.Fatalf("timing matrix hash %#x, want %#x", got, uint64(timingMatrixGolden))
	}
}
