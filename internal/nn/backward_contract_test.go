package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dssp/internal/tensor"
)

// The Layer contract: Backward leaves this pass's parameter gradients, bit
// for bit what adding them into zeroed tensors leaves — which is what every
// layer did until Backward stopped needing a ZeroGrads before it.

// contractLayer is one parameterized layer kind with an input shape to drive
// it at, and the hash of its gradients as the accumulating Backward of commit
// 006d85e left them in zeroed tensors for the same seeded pass, per kernel
// binding (the conv weight gradient is a transposed-B product, which the
// assembly and the Go loops round differently; the AVX-512 panels round as
// the AVX2 ones do, so their hashes are the same). Two assembly hashes were
// recorded again when 3×3 stride-1 convolutions went direct (direct.go): the
// weight gradient reads the bordered image as one run per output row, and
// the panels sum a run's w%8 tail in the lanes the run starts in, where the
// patch matrix's row would have carried it on into the next row's — Conv2D's
// rows are 9 wide, the projection block's second convolution's 4. The Go
// loops sum one chain either way and ResidualBlock's rows are 8 wide, so
// their hashes stand; TestDirectConvMatchesIm2col bounds the difference.
type contractLayer struct {
	name   string
	build  func(rng *rand.Rand) Layer
	in     []int // input shape after the batch dimension
	parent map[string]uint64
}

func contractLayers() []contractLayer {
	return []contractLayer{
		{"Dense", func(rng *rand.Rand) Layer { return NewDense(rng, 37, 19) }, []int{37},
			map[string]uint64{"avx512": 0xa6299f1a41e6054c, "avx2": 0xa6299f1a41e6054c, "go": 0xa6299f1a41e6054c}},
		{"Conv2D", func(rng *rand.Rand) Layer { return NewConv2D(rng, 3, 5, 3, 1, 1) }, []int{3, 9, 9},
			map[string]uint64{"avx512": 0xf47e169784bb5e36, "avx2": 0xf47e169784bb5e36, "go": 0xdd2f52e630613726}},
		{"Conv2D/stride2", func(rng *rand.Rand) Layer { return NewConv2D(rng, 3, 4, 3, 2, 1) }, []int{3, 9, 9},
			map[string]uint64{"avx512": 0x865f77be909f0d82, "avx2": 0x865f77be909f0d82, "go": 0x6b6783968e01f37d}},
		{"BatchNorm", func(rng *rand.Rand) Layer { return NewBatchNorm(6) }, []int{6, 5, 5},
			map[string]uint64{"avx512": 0xa86e7f6090db90de, "avx2": 0xa86e7f6090db90de, "go": 0xa86e7f6090db90de}},
		{"ResidualBlock", func(rng *rand.Rand) Layer { return NewResidualBlock(rng, 4, 4, 1) }, []int{4, 8, 8},
			map[string]uint64{"avx512": 0xbcc56d6c0f04bb8b, "avx2": 0xbcc56d6c0f04bb8b, "go": 0xfa9b9a93ebfdb040}},
		{"ResidualBlock/projection", func(rng *rand.Rand) Layer { return NewResidualBlock(rng, 4, 8, 2) }, []int{4, 8, 8},
			map[string]uint64{"avx512": 0xed6f3ac976cfdee5, "avx2": 0xed6f3ac976cfdee5, "go": 0x23a622bb494dd2aa}},
	}
}

// pass runs one training Forward and Backward of l on a seeded batch and
// upstream gradient.
func (c contractLayer) pass(l Layer, seed int64, batch int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(append([]int{batch}, c.in...)...).RandNormal(rng, 0, 1)
	out := l.Forward(x, true)
	l.Backward(tensor.New(out.Shape()...).RandNormal(rng, 0, 1))
}

func gradBits(l Layer) [][]float32 {
	var out [][]float32
	for _, g := range l.Grads() {
		out = append(out, append([]float32(nil), g.Data()...))
	}
	return out
}

func gradHash(l Layer) uint64 {
	h := fnv.New64a()
	var word [4]byte
	for _, g := range l.Grads() {
		for _, v := range g.Data() {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			h.Write(word[:])
		}
	}
	return h.Sum64()
}

func TestBackwardLeavesThisPassGradients(t *testing.T) {
	for _, c := range contractLayers() {
		t.Run(c.name, func(t *testing.T) {
			l := c.build(rand.New(rand.NewSource(41)))

			// Two passes with nothing in between leave the second one's
			// gradients: what the same pass leaves in zeroed tensors.
			c.pass(l, 42, 3)
			c.pass(l, 43, 3)
			second := gradBits(l)
			for _, g := range l.Grads() {
				g.Zero()
			}
			c.pass(l, 43, 3)
			for i, g := range l.Grads() {
				if !sameBits(g.Data(), second[i]) {
					t.Fatalf("gradient %d after two passes is not the second pass's: Backward kept part of the first", i)
				}
			}

			// The same bits the accumulating Backward left in zeroed tensors
			// (recorded on amd64: elsewhere the compiler may fuse the Go
			// loops' multiply-adds).
			if got, want := gradHash(l), c.parent[tensor.Kernel()]; got != want && runtime.GOARCH == "amd64" {
				t.Errorf("gradient hash %#x, the accumulating Backward into zeroed gradients left %#x (kernel=%s)", got, want, tensor.Kernel())
			}

			// Sign of zero: into zeroed tensors an upstream gradient of −0
			// adds up to +0 everywhere, whatever was there before — a sum
			// started from its first term, or a product stored instead of
			// added to +0, would leave −0.
			negZero := float32(math.Copysign(0, -1))
			for _, batch := range []int{1, 3} {
				rng := rand.New(rand.NewSource(44))
				x := tensor.New(append([]int{batch}, c.in...)...).RandNormal(rng, 0, 1)
				out := l.Forward(x, true)
				for _, g := range l.Grads() {
					g.Fill(7)
				}
				l.Backward(tensor.Full(negZero, out.Shape()...))
				for i, g := range l.Grads() {
					for j, v := range g.Data() {
						if math.Float32bits(v) != 0 {
							t.Fatalf("batch %d: gradient %d[%d] = %v (bits %#x) under an all −0 upstream gradient, want +0",
								batch, i, j, v, math.Float32bits(v))
						}
					}
				}
			}
		})
	}
}

// TestBatchNormGradientUnderflowsToPlusZero: a gamma gradient whose float64
// sum is negative and below half the smallest float32 rounds to −0, and −0
// added into a zeroed gradient is +0.
func TestBatchNormGradientUnderflowsToPlusZero(t *testing.T) {
	bn := NewBatchNorm(1)
	bn.Forward(tensor.FromSlice([]float32{-3, -0.2, 0.2, 3}, 1, 1, 2, 2), true)
	// x̂[2] ≈ 0.094: the one term of Σdy·x̂ is ≈ −1.3e-46.
	bn.Grads()[0].Fill(7)
	bn.Backward(tensor.FromSlice([]float32{0, 0, -math.SmallestNonzeroFloat32, 0}, 1, 1, 2, 2))
	if got := bn.Grads()[0].Data()[0]; math.Float32bits(got) != 0 {
		t.Fatalf("gamma gradient = %v (bits %#x), want +0", got, math.Float32bits(got))
	}
	if got := bn.Grads()[1].Data()[0]; got != -math.SmallestNonzeroFloat32 {
		t.Fatalf("beta gradient = %v, want the one term %v", got, float32(-math.SmallestNonzeroFloat32))
	}
}

// TestAdoptGradsBackwardIsBitIdentical: a network whose gradients are adopted
// — views into one shared buffer, each at an odd 4-byte offset as a lane push
// slot's views sit, poisoned with NaN before every pass — leaves in them, pass
// after pass, exactly the bits its twin leaves in its own storage; a nil
// entry keeps that gradient home; DetachGrads puts every gradient back on the
// storage it was built on.
func TestAdoptGradsBackwardIsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Network
		in    []int
	}{
		{"SmallMLP", func() *Network { return SmallMLP(rand.New(rand.NewSource(5)), 300, 64, 10) }, []int{300}},
		{"ResNet-8", func() *Network { return ResNetCIFAR(rand.New(rand.NewSource(5)), 8, 10) }, []int{3, 16, 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			home, adopted := tc.build(), tc.build()
			built := make([]*float32, len(adopted.Grads()))
			size := 0
			for i, g := range adopted.Grads() {
				built[i] = &g.Data()[0]
				size += g.Size() + 1
			}
			backing := make([]float32, size+1)
			views := make([]*tensor.Tensor, len(built))
			off := 1
			for i, g := range adopted.Grads() {
				views[i] = tensor.FromSliceOwned(backing[off:off+g.Size()], g.Shape()...)
				off += g.Size() + 1
			}
			views[1] = nil // the first layer's bias stays home
			if err := adopted.AdoptGrads(views); err != nil {
				t.Fatal(err)
			}
			for pass := int64(0); pass < 3; pass++ {
				for i := range backing {
					backing[i] = float32(math.NaN())
				}
				for _, n := range []*Network{home, adopted} {
					rng := rand.New(rand.NewSource(60 + pass))
					x := tensor.New(append([]int{4}, tc.in...)...).RandNormal(rng, 0, 1)
					n.Loss(x, []int{1, 3, 5, 7}, true)
					n.Backward()
				}
				for i, g := range adopted.Grads() {
					want := &g.Data()[0] == built[i]
					if views[i] != nil {
						want = &g.Data()[0] == &views[i].Data()[0]
					}
					if !want {
						t.Fatalf("pass %d: gradient %d is not where AdoptGrads put it", pass, i)
					}
					if !sameBits(g.Data(), home.Grads()[i].Data()) {
						t.Fatalf("pass %d: gradient %d differs from Backward into the network's own storage", pass, i)
					}
				}
			}
			adopted.DetachGrads()
			for i, g := range adopted.Grads() {
				if &g.Data()[0] != built[i] {
					t.Fatalf("gradient %d is not back on its own storage after DetachGrads", i)
				}
			}
			if err := adopted.AdoptGrads(views[1:]); err == nil {
				t.Fatal("AdoptGrads took one tensor fewer than the network has")
			}
		})
	}
}
