package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dssp/internal/tensor"
)

// planModel is one of the models the buffer plan (scratch.go) is held to,
// with the input shape after the batch dimension it runs on.
type planModel struct {
	name  string
	build func(rng *rand.Rand) *Network
	in    []int
	// budget is the most its first training iteration at batch 8 may
	// allocate, in KB: ResNet-8's what it allocates with the pool and no
	// patch matrix in any convolution, the others' what they allocated when
	// every layer owned its buffers.
	budget uint64
}

func planModels() []planModel {
	return []planModel{
		{"ResNet-8", func(rng *rand.Rand) *Network { return ResNetCIFAR(rng, 8, 10) }, []int{3, 32, 32}, 13526},
		{"AlexNet-small", func(rng *rand.Rand) *Network { return DownsizedAlexNet(rng, 32, 10) }, []int{3, 32, 32}, 10274},
		{"SmallCNN", func(rng *rand.Rand) *Network { return SmallCNN(rng, 3, 8, 4) }, []int{3, 8, 8}, 104},
		{"SmallMLP", func(rng *rand.Rand) *Network { return SmallMLP(rng, 16, 32, 4) }, []int{16}, 6},
	}
}

func batchOf(rng *rand.Rand, n int, in []int) (*tensor.Tensor, []int) {
	x := tensor.New(append([]int{n}, in...)...).RandNormal(rng, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	return x, labels
}

// TestActivationPlanBitIdentical: taking buffers from the pool changes where
// values live, not what they are. Each model trains three SGD steps — batch
// 8, a tail batch of 5, batch 8 — with an evaluation pass between every
// Forward and its Backward, next to a replica whose layers own every buffer;
// the losses, the evaluation logits and every parameter gradient must agree
// bit for bit. A pooled buffer handed out while another still needed it
// would show here.
func TestActivationPlanBitIdentical(t *testing.T) {
	for _, m := range planModels() {
		t.Run(m.name, func(t *testing.T) {
			pooled, owned := m.build(rand.New(rand.NewSource(41))), m.build(rand.New(rand.NewSource(41)))
			owned.planBuffers(nil)
			rng := rand.New(rand.NewSource(42))
			evalX, _ := batchOf(rng, 3, m.in)
			for it, n := range []int{8, 5, 8} {
				x, labels := batchOf(rng, n, m.in)
				var loss [2]float64
				var logits [2][]float32
				for i, net := range []*Network{pooled, owned} {
					loss[i], _ = net.Loss(x, labels, true)
					logits[i] = net.Forward(evalX, false).Data()
					net.Backward()
				}
				if math.Float64bits(loss[0]) != math.Float64bits(loss[1]) {
					t.Fatalf("iteration %d: loss %v pooled, %v owned", it, loss[0], loss[1])
				}
				if !sameBits(logits[0], logits[1]) {
					t.Fatalf("iteration %d: evaluation logits differ", it)
				}
				for i, g := range pooled.Grads() {
					if !sameBits(g.Data(), owned.Grads()[i].Data()) {
						t.Fatalf("iteration %d: gradient %d differs between the pooled and the owned buffers", it, i)
					}
				}
				for _, net := range []*Network{pooled, owned} {
					for i, p := range net.Params() {
						p.AXPY(-0.05, net.Grads()[i])
					}
				}
			}
		})
	}
}

// TestTrainingScratchBudget guards what a network keeps for its training
// pass: the bytes its first iteration at batch 8 allocates, nearly all of
// them the buffers every later iteration reuses (scratch.go). ResNet-8
// allocated 23 220 KB when every layer owned its buffers and 14 129 KB when
// its strided convolutions still built patch matrices; a change that gives
// layers back buffers no later pass reads, or brings a patch matrix back,
// fails here. Run with -v for the table.
func TestTrainingScratchBudget(t *testing.T) {
	// A product that fans out allocates its closure and wait group.
	prev := tensor.SetMatMulParallelMinFlops(math.MaxInt64)
	defer tensor.SetMatMulParallelMinFlops(prev)
	t.Logf("%-14s %10s %10s %8s", "model", "bytes", "budget KB", "allocs")
	for _, m := range planModels() {
		rng := rand.New(rand.NewSource(43))
		x, labels := batchOf(rng, 8, m.in)
		// A first pass on another replica fills what internal/tensor builds
		// once per product shape for the process.
		m.build(rng).Loss(x, labels, true)
		net := m.build(rng)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net.Loss(x, labels, true)
		net.Backward()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		kb := (bytes + 1023) / 1024
		t.Logf("%-14s %10d %10d %8d", m.name, bytes, m.budget, after.Mallocs-before.Mallocs)
		if kb > m.budget {
			t.Errorf("%s: the first training iteration allocates %d KB, budget %d KB", m.name, kb, m.budget)
		}
	}
}

// TestPoolTakesTwoBuffersPerGeometry pins the pool's bookkeeping: the same
// geometry at two batch sizes shares two buffers, handed out in turn, the
// smaller batch on a prefix of the larger's storage.
func TestPoolTakesTwoBuffersPerGeometry(t *testing.T) {
	var p pool
	a, b := p.get(8, 4, 3, 3), p.get(8, 4, 3, 3)
	if &a.Data()[0] == &b.Data()[0] {
		t.Fatal("two buffers of one geometry in a row share storage")
	}
	c := p.get(5, 4, 3, 3)
	if &c.Data()[0] != &a.Data()[0] || c.Size() != 5*4*3*3 {
		t.Fatalf("a batch of 5 after two of 8 got %v, not a prefix of the first buffer", c.Shape())
	}
	if d := p.get(8, 4, 3, 3); d != b {
		t.Fatal("the fourth request did not get the second buffer's header back")
	}
	if e := p.get(8, 4, 3, 2); &e.Data()[0] == &a.Data()[0] || &e.Data()[0] == &b.Data()[0] {
		t.Fatal("another geometry got a buffer of the first")
	}
	if len(p.pairs) != 2 {
		t.Fatalf("pool holds %d pairs for two geometries", len(p.pairs))
	}
}
