package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"dssp/internal/tensor"
)

// im2colRef is what the patch-matrix convolution makes of one pass: the
// reference Conv2D is held to.
type im2colRef struct {
	out, gradW, gradB, dx []float32
	cols                  []float32 // the patch matrices, one per batch item
}

// im2colPass runs one pass of c's weights through patch matrices: each
// image's refIm2col times the weights plus the bias, dW the dense
// transposed-B products summed over the batch, and dX each image's Wᵀ·grad
// scattered back by refCol2im onto a zeroed image. A nil grad runs the
// forward product only.
func im2colPass(c *Conv2D, x, grad *tensor.Tensor) im2colRef {
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	plane, patch := c.outSize(h)*c.outSize(w), c.inC*c.kernel*c.kernel
	imgSize, outImgSize := c.inC*h*w, c.outC*plane
	r := im2colRef{out: make([]float32, 0, batch*outImgSize)}
	if grad != nil {
		r.gradB, r.dx = make([]float32, c.outC), make([]float32, batch*imgSize)
		r.cols = make([]float32, 0, batch*patch*plane)
	}
	var gradW *tensor.Tensor
	for b := 0; b < batch; b++ {
		col := tensor.FromSlice(refIm2col(c, x.Data()[b*imgSize:][:imgSize], h, w), patch, plane)
		out := tensor.MatMul(c.weight, col).Data()
		for oc, bval := range c.bias.Data() {
			for j := range out[oc*plane : (oc+1)*plane] {
				out[oc*plane+j] += bval
			}
		}
		r.out = append(r.out, out...)
		if grad == nil {
			continue
		}
		r.cols = append(r.cols, col.Data()...)
		gm := tensor.FromSlice(grad.Data()[b*outImgSize:][:outImgSize], c.outC, plane)
		for oc := range r.gradB {
			r.gradB[oc] += tensor.SumSlice(gm.Data()[oc*plane : (oc+1)*plane])
		}
		if b == 0 {
			gradW = tensor.MatMulTransB(gm, col)
		} else {
			tensor.MatMulTransBAcc(gradW, gm, col)
		}
		refCol2im(c, tensor.MatMulTransA(c.weight, gm).Data(), h, w, r.dx[b*imgSize:][:imgSize])
	}
	if gradW != nil {
		r.gradW = gradW.Data()
	}
	return r
}

// sameOrBothNaN is sameBits with any NaN equal to any other: the two paths
// may pick different NaN payloads out of the same operands. Equal values
// other than zeros have equal bits, so only a zero's sign is read from them.
// Like the reference loops it reads one case's buffers, and -race skips it.
//
//go:norace
func sameOrBothNaN(got, want []float32) bool {
	for i, w := range want {
		g := got[i]
		if g == w && (g != 0 || math.Signbit(float64(g)) == math.Signbit(float64(w))) || g != g && w != w {
			continue
		}
		return false
	}
	return len(got) == len(want)
}

// convFill fills t from one of the property test's value mixes: normal
// values, or normal values with one in six a NaN, ±Inf, a subnormal or a
// signed zero.
func convFill(rng *rand.Rand, t *tensor.Tensor, specials bool) *tensor.Tensor {
	odd := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		1e-40, -1e-41, float32(math.Copysign(0, -1)), 0}
	data := t.Data()
	for i := range data {
		v := float32(rng.NormFloat64())
		if specials && rng.Intn(6) == 0 {
			v = odd[rng.Intn(len(odd))]
		}
		data[i] = v
	}
	return t
}

// TestDirectConvMatchesIm2col holds Conv2D to patch matrices and the dense
// products (im2colPass) at every kernel of 1, 3 and 5, stride 1 and 2 and pad
// 0 to 2, over a grid of planes (H, W from 1 to 32, whole 16-column tiles and
// not, rows of whole eight-lane vectors and not; a plane smaller than the
// kernel even padded is skipped), channel counts around the panels' four rows
// and sixteen columns, batches of one to three, for training and evaluation
// forward passes, with and without the input gradient, on normal values and
// on values mixed with NaN, ±Inf, subnormals and −0 — in the input and
// upstream gradient, or in the weights. The outputs, the bias gradient and
// the input gradient must be bit for bit the reference's; so must the weight
// gradient on the Go loops, wherever the output width is a multiple of eight
// and wherever no tap shifts past its column (k ≤ s), and elsewhere it must
// agree within the bound for reassociating its sums (direct.go). make
// portable runs it on all three kernel bindings.
func TestDirectConvMatchesIm2col(t *testing.T) {
	// Every case allocates its layers, inputs and reference afresh, and under
	// -race a collection and the reuse of what it frees cost more than the
	// case: collect at a ninefold heap instead of a doubled one.
	prev := debug.SetGCPercent(800)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
	sizes := []int{1, 2, 3, 5, 8, 9, 16, 17, 32}
	inCs, outCs := []int{1, 3, 16, 17}, []int{1, 4, 5, 16}
	var geoms [][3]int // kernel, stride, pad
	for _, k := range []int{1, 3, 5} {
		for _, s := range []int{1, 2} {
			for _, p := range []int{0, 1, 2} {
				geoms = append(geoms, [3]int{k, s, p})
			}
		}
	}
	for gi, geom := range geoms {
		k, s, p := geom[0], geom[1], geom[2]
		t.Run(fmt.Sprintf("k%d/s%d/p%d", k, s, p), func(t *testing.T) {
			t.Parallel()
			testDirectConvGeometry(t, rand.New(rand.NewSource(73+int64(gi))), k, s, p, sizes, inCs, outCs)
		})
	}
}

// testDirectConvGeometry runs TestDirectConvMatchesIm2col's grid of planes,
// channel counts, batches, fills and noDx arms at one kernel, stride and pad.
func testDirectConvGeometry(t *testing.T, rng *rand.Rand, k, s, p int, sizes, inCs, outCs []int) {
	step := 0
	for _, h := range sizes {
		for _, w := range sizes {
			step++
			if h+2*p < k || w+2*p < k {
				continue
			}
			inC, outC := inCs[step%len(inCs)], outCs[(step/len(inCs)+step)%len(outCs)]
			batch := 1 + step%3
			for _, fill := range []string{"normal", "input-specials", "weight-specials"} {
				// One layer, its inputs and the reference serve both
				// arms; the noDx arm runs a twin of the layer.
				c := NewConv2D(rng, inC, outC, k, s, p)
				convFill(rng, c.bias, false)
				convFill(rng, c.weight, fill == "weight-specials")
				outH, outW := c.outSize(h), c.outSize(w)
				x := convFill(rng, tensor.New(batch, inC, h, w), fill == "input-specials")
				grad := convFill(rng, tensor.New(batch, outC, outH, outW), fill == "input-specials")
				evalX := convFill(rng, tensor.New(1+step%2, inC, h, w), fill == "input-specials")
				ref := im2colPass(c, x, grad)
				evalRef := im2colPass(c, evalX, nil).out
				for _, noDx := range []bool{false, true} {
					name := fmt.Sprintf("%dx%d/%d->%d/batch=%d/%s/noDx=%v", h, w, inC, outC, batch, fill, noDx)
					layer := c
					if noDx {
						layer = NewConv2D(rng, inC, outC, k, s, p)
						copy(layer.weight.Data(), c.weight.Data())
						copy(layer.bias.Data(), c.bias.Data())
						layer.noDx = true
					}

					check := func(what string, got, want []float32) {
						t.Helper()
						if !sameOrBothNaN(got, want) {
							t.Fatalf("%s: %s differs from the patch-matrix reference", name, what)
						}
					}
					check("evaluation output", layer.Forward(evalX, false).Data(), evalRef)
					check("training output", layer.Forward(x, true).Data(), ref.out)
					dx := layer.Backward(grad)
					if noDx != (dx == nil) {
						t.Fatalf("%s: Backward returned %v with noDx=%v", name, dx, noDx)
					}
					if dx != nil {
						check("input gradient", dx.Data(), ref.dx)
						// Into a dirty buffer, as a pooled one is.
						dirty, nan := dx.Data(), float32(math.NaN())
						for i := range dirty {
							dirty[i] = nan
						}
						check("input gradient into a dirty buffer", layer.Backward(grad).Data(), ref.dx)
					}
					check("bias gradient", layer.gradB.Data(), ref.gradB)
					if tensor.Kernel() == "go" || outW%8 == 0 || k <= s {
						check("weight gradient", layer.gradW.Data(), ref.gradW)
						continue
					}
					// The bound for each weight gradient that is not the
					// reference's, from the patch matrices: batch·outH·outW
					// products, a rounding each, and one per image added on.
					cols, g := ref.cols, grad.Data()
					plane, patch := outH*outW, inC*k*k
					terms := batch * (plane + 1)
					for oc := 0; oc < outC; oc++ {
						for kk := 0; kk < patch; kk++ {
							got, want := float64(layer.gradW.Data()[oc*patch+kk]), float64(ref.gradW[oc*patch+kk])
							if want != want && got != got || want == got {
								continue
							}
							var sumAbs float64
							for b := 0; b < batch; b++ {
								sumAbs += absDot(g[(b*outC+oc)*plane:][:plane], cols[(b*patch+kk)*plane:][:plane])
							}
							tol := 2*float64(terms)*0x1p-24*sumAbs + float64(terms)*math.SmallestNonzeroFloat32
							if !(math.Abs(got-want) <= tol) {
								t.Fatalf("%s: weight gradient (%d,%d) %g, reference %g (bound %g)", name, oc, kk, got, want, tol)
							}
						}
					}
				}
			}
		}
	}
}

// absDot is the sum of |a[j]·b[j]| in float64, a weight gradient's bound
// before scaling. It reads only one case's buffers, so -race is told to skip
// it: instrumented, its two checked reads a product made it most of the
// test's cost.
//
//go:norace
func absDot(a, b []float32) float64 {
	var sum float64
	for j, v := range a {
		p := float64(v) * float64(b[j])
		if p < 0 {
			p = -p
		}
		sum += p
	}
	return sum
}

// TestConvEvalPassLeavesTrainingBuffersAlone: an evaluation pass at another
// size between a training Forward and its Backward leaves the gradients
// bit for bit what they are without it, and a training step after it
// allocates nothing — the evaluation pass sized its own buffers, not the
// training pass's (scratch.go) — at stride 1, stride 2 and a 1×1 stride 2.
func TestConvEvalPassLeavesTrainingBuffersAlone(t *testing.T) {
	prev := tensor.SetMatMulParallelMinFlops(math.MaxInt64) // a fan-out allocates its closure
	defer tensor.SetMatMulParallelMinFlops(prev)
	for _, geom := range []struct {
		name                string
		kernel, stride, pad int
	}{
		{"stride=1", 3, 1, 1}, {"stride=2", 3, 2, 1}, {"1x1-stride=2", 1, 2, 0},
	} {
		t.Run(geom.name, func(t *testing.T) {
			build := func() *Conv2D {
				return NewConv2D(rand.New(rand.NewSource(31)), 3, 5, geom.kernel, geom.stride, geom.pad)
			}
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

// TestConvSizeChangeLeavesNoStalePixels: a layer run at one input size and
// then at another whose buffers have the same dims gives bit for bit what a
// fresh layer gives at the second size. 8×8 and 7×7 at stride 2 both give
// 4×4 outputs, and where 8×8 has an image pixel 7×7 has border; 5×14 and 8×8
// at stride 1 both compute 80 columns a plane, and where 5×14 has gradient
// 8×8 has dropped columns. The layout change clears both (direct.go).
func TestConvSizeChangeLeavesNoStalePixels(t *testing.T) {
	for _, tc := range []struct {
		stride        int
		first, second [2]int
	}{{2, [2]int{8, 8}, [2]int{7, 7}}, {1, [2]int{5, 14}, [2]int{8, 8}}} {
		build := func() *Conv2D { return NewConv2D(rand.New(rand.NewSource(33)), 3, 4, 3, tc.stride, 1) }
		rng := rand.New(rand.NewSource(34))
		reused, fresh := build(), build()
		var x, grad *tensor.Tensor
		for _, hw := range [][2]int{tc.first, tc.second} {
			x = tensor.New(2, 3, hw[0], hw[1]).RandNormal(rng, 0, 1)
			grad = tensor.New(2, 4, reused.outSize(hw[0]), reused.outSize(hw[1])).RandNormal(rng, 0, 1)
			reused.Forward(x, false)
			reused.Forward(x, true)
			reused.Backward(grad)
		}
		for _, train := range []bool{false, true} {
			if !sameBits(reused.Forward(x, train).Data(), fresh.Forward(x, train).Data()) {
				t.Fatalf("stride %d, %v after %v: Forward(train=%v) differs from a fresh layer's", tc.stride, tc.second, tc.first, train)
			}
		}
		if !sameBits(reused.Backward(grad).Data(), fresh.Backward(grad).Data()) || !sameBits(reused.gradW.Data(), fresh.gradW.Data()) {
			t.Fatalf("stride %d, %v after %v: Backward differs from a fresh layer's", tc.stride, tc.second, tc.first)
		}
	}
}
