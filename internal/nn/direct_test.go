package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dssp/internal/tensor"
)

// im2colTwin returns a layer with c's geometry, weights and first-layer flag
// that runs the im2col path whatever its geometry: the reference the direct
// path is held to.
func im2colTwin(c *Conv2D) *Conv2D {
	r := NewConv2D(rand.New(rand.NewSource(1)), c.inC, c.outC, c.kernel, c.stride, c.pad)
	r.direct, r.noDx = false, c.noDx
	copy(r.weight.Data(), c.weight.Data())
	copy(r.bias.Data(), c.bias.Data())
	return r
}

// sameOrBothNaN is sameBits with any NaN equal to any other: the two paths
// may pick different NaN payloads out of the same operands.
func sameOrBothNaN(got, want []float32) bool {
	for i, w := range want {
		if g := got[i]; math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
			return false
		}
	}
	return len(got) == len(want)
}

// convFill fills t from one of the property test's value mixes: normal
// values, or normal values with one in six a NaN, ±Inf, a subnormal or a
// signed zero.
func convFill(rng *rand.Rand, t *tensor.Tensor, specials bool) *tensor.Tensor {
	odd := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		1e-40, -1e-41, float32(math.Copysign(0, -1)), 0}
	for i := range t.Data() {
		v := float32(rng.NormFloat64())
		if specials && rng.Intn(6) == 0 {
			v = odd[rng.Intn(len(odd))]
		}
		t.Data()[i] = v
	}
	return t
}

// TestDirectConvMatchesIm2col holds the direct 3×3 path to im2col + the
// dense panels over a grid of planes (H, W from 1 to 32, whole 16-column
// tiles and not, rows of whole eight-lane vectors and not), channel counts
// around the panels' four rows and sixteen columns, batches of one to three,
// for training and evaluation forward passes, with and without the input
// gradient, on normal values and on values mixed with NaN, ±Inf, subnormals
// and −0 — in the input and upstream gradient, or in the weights. The
// outputs, the bias gradient and the input gradient must be bit for bit the
// reference's; so must the weight gradient on the Go loops and wherever W is
// a multiple of eight, and elsewhere it must agree within the bound for
// reassociating its sums (direct.go). make portable runs it on all three
// kernel bindings.
func TestDirectConvMatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	sizes := []int{1, 2, 3, 5, 8, 9, 16, 17, 32}
	inCs, outCs := []int{1, 3, 16, 17}, []int{1, 4, 5, 16}
	step := 0
	for _, h := range sizes {
		for _, w := range sizes {
			step++
			inC, outC := inCs[step%len(inCs)], outCs[(step/len(inCs)+step)%len(outCs)]
			batch := 1 + step%3
			for _, fill := range []string{"normal", "input-specials", "weight-specials"} {
				for _, noDx := range []bool{false, true} {
					name := fmt.Sprintf("%dx%d/%d->%d/batch=%d/%s/noDx=%v", h, w, inC, outC, batch, fill, noDx)
					c := NewConv2D(rng, inC, outC, 3, 1, 1)
					if !c.direct {
						t.Fatal("a 3×3 stride-1 pad-1 convolution did not take the direct path")
					}
					convFill(rng, c.bias, false)
					convFill(rng, c.weight, fill == "weight-specials")
					c.noDx = noDx
					ref := im2colTwin(c)
					x := convFill(rng, tensor.New(batch, inC, h, w), fill == "input-specials")
					grad := convFill(rng, tensor.New(batch, outC, h, w), fill == "input-specials")
					evalX := convFill(rng, tensor.New(1+step%2, inC, h, w), fill == "input-specials")

					check := func(what string, got, want []float32) {
						t.Helper()
						if !sameOrBothNaN(got, want) {
							t.Fatalf("%s: %s differs from the im2col path", name, what)
						}
					}
					check("evaluation output", c.Forward(evalX, false).Data(), ref.Forward(evalX, false).Data())
					check("training output", c.Forward(x, true).Data(), ref.Forward(x, true).Data())
					dx, refDx := c.Backward(grad), ref.Backward(grad)
					if noDx != (dx == nil) {
						t.Fatalf("%s: Backward returned %v with noDx=%v", name, dx, noDx)
					}
					if dx != nil {
						check("input gradient", dx.Data(), refDx.Data())
					}
					check("bias gradient", c.gradB.Data(), ref.gradB.Data())
					if tensor.Kernel() == "go" || w%8 == 0 {
						check("weight gradient", c.gradW.Data(), ref.gradW.Data())
						continue
					}
					// The bound for each weight gradient, from the patch
					// matrices the reference built: batch·h·w products, a
					// rounding each, and one per image added on.
					cols, g := ref.in.data, grad.Data()
					plane, patch := h*w, inC*9
					for oc := 0; oc < outC; oc++ {
						for kk := 0; kk < patch; kk++ {
							var sumAbs float64
							for b := 0; b < batch; b++ {
								for j := 0; j < plane; j++ {
									sumAbs += math.Abs(float64(g[(b*outC+oc)*plane+j]) * float64(cols[(b*patch+kk)*plane+j]))
								}
							}
							terms := batch * (plane + 1)
							tol := 2*float64(terms)*math.Pow(2, -24)*sumAbs + float64(terms)*math.SmallestNonzeroFloat32
							got, want := float64(c.gradW.Data()[oc*patch+kk]), float64(ref.gradW.Data()[oc*patch+kk])
							if !(want != want && got != got || want == got || math.Abs(got-want) <= tol) {
								t.Fatalf("%s: weight gradient (%d,%d) %g, im2col path %g (bound %g)", name, oc, kk, got, want, tol)
							}
						}
					}
				}
			}
		}
	}
}

// TestConvEvalPassLeavesTrainingBuffersAlone: an evaluation pass at another
// size between a training Forward and its Backward leaves the gradients
// bit for bit what they are without it, and a training step after it
// allocates nothing — the evaluation pass sized its own buffers, not the
// training pass's (scratch.go), on both paths.
func TestConvEvalPassLeavesTrainingBuffersAlone(t *testing.T) {
	prev := tensor.SetMatMulParallelMinFlops(math.MaxInt64) // a fan-out allocates its closure
	defer tensor.SetMatMulParallelMinFlops(prev)
	for _, stride := range []int{1, 2} {
		t.Run(fmt.Sprintf("stride=%d", stride), func(t *testing.T) {
			build := func() *Conv2D { return NewConv2D(rand.New(rand.NewSource(31)), 3, 5, 3, stride, 1) }
			rng := rand.New(rand.NewSource(32))
			x := tensor.New(2, 3, 8, 8).RandNormal(rng, 0, 1)
			other := tensor.New(3, 3, 6, 6).RandNormal(rng, 0, 1)
			plain, interleaved := build(), build()
			grad := tensor.New(plain.Forward(x, true).Shape()...).RandNormal(rng, 0, 1)
			plainDx := plain.Backward(grad)

			interleaved.Forward(x, true)
			interleaved.Forward(other, false)
			dx := interleaved.Backward(grad)
			for i, g := range plain.Grads() {
				if !sameBits(interleaved.Grads()[i].Data(), g.Data()) {
					t.Fatalf("gradient %d changed when an evaluation pass ran between Forward and Backward", i)
				}
			}
			if !sameBits(dx.Data(), plainDx.Data()) {
				t.Fatal("the input gradient changed when an evaluation pass ran between Forward and Backward")
			}

			// An evaluation pass allocates its output; a cycle of one at
			// another size and a training step must allocate no more.
			evalOnly := testing.AllocsPerRun(10, func() { interleaved.Forward(other, false) })
			cycle := testing.AllocsPerRun(10, func() {
				interleaved.Forward(other, false)
				interleaved.Forward(x, true)
				interleaved.Backward(grad)
			})
			if cycle != evalOnly {
				t.Fatalf("an evaluation pass at another size and a training step allocate %v objects, the evaluation pass alone %v: the training step allocates", cycle, evalOnly)
			}
		})
	}
}
