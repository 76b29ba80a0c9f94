package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dssp/internal/tensor"
)

// refIm2col and refCol2im are the per-element loops the row-run forms
// replaced: one bounds test per element, no assumptions about runs.

func refIm2col(c *Conv2D, img []float32, h, w int) []float32 {
	outH, outW := c.outSize(h), c.outSize(w)
	k := c.kernel
	col := make([]float32, c.inC*k*k*outH*outW)
	for ch := 0; ch < c.inC; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rowBase := ((ch*k+ky)*k + kx) * outH * outW
				for oy := 0; oy < outH; oy++ {
					iy := oy*c.stride + ky - c.pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < outW; ox++ {
						ix := ox*c.stride + kx - c.pad
						if ix < 0 || ix >= w {
							continue
						}
						col[rowBase+oy*outW+ox] = img[ch*h*w+iy*w+ix]
					}
				}
			}
		}
	}
	return col
}

func refCol2im(c *Conv2D, col []float32, h, w int, dst []float32) {
	outH, outW := c.outSize(h), c.outSize(w)
	k := c.kernel
	for ch := 0; ch < c.inC; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				rowBase := ((ch*k+ky)*k + kx) * outH * outW
				for oy := 0; oy < outH; oy++ {
					iy := oy*c.stride + ky - c.pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < outW; ox++ {
						ix := ox*c.stride + kx - c.pad
						if ix < 0 || ix >= w {
							continue
						}
						dst[ch*h*w+iy*w+ix] += col[rowBase+oy*outW+ox]
					}
				}
			}
		}
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestIm2colCol2imBitIdenticalToPerElementLoops: im2col is pure data
// movement and col2im adds into each destination in the same order, so the
// row-run forms must reproduce the per-element loops bit for bit — including
// into a dirty buffer, since the patch matrices are reused across iterations.
func TestIm2colCol2imBitIdenticalToPerElementLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sizes := [][2]int{{5, 5}, {7, 4}, {3, 9}, {8, 8}, {1, 6}, {2, 2}}
	for _, kernel := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range sizes {
					h, w := hw[0], hw[1]
					if h+2*pad < kernel || w+2*pad < kernel {
						continue
					}
					name := fmt.Sprintf("k%d/s%d/p%d/%dx%d", kernel, stride, pad, h, w)
					c := NewConv2D(rng, 2, 3, kernel, stride, pad)
					img := tensor.New(2, h, w).RandNormal(rng, 0, 1).Data()

					want := refIm2col(c, img, h, w)
					got := make([]float32, len(want))
					for i := range got {
						got[i] = float32(math.NaN()) // stale contents must all be overwritten
					}
					c.im2col(got, img, h, w)
					if !sameBits(got, want) {
						t.Fatalf("%s: im2col differs from the per-element loop", name)
					}

					col := tensor.New(len(want)).RandNormal(rng, 0, 1).Data()
					base := tensor.New(2, h, w).RandNormal(rng, 0, 1).Data()
					wantImg := append([]float32(nil), base...)
					gotImg := append([]float32(nil), base...)
					refCol2im(c, col, h, w, wantImg)
					c.col2im(col, h, w, gotImg)
					if !sameBits(gotImg, wantImg) {
						t.Fatalf("%s: col2im differs from the per-element loop", name)
					}
				}
			}
		}
	}
}

// TestConv2DSteadyStateAllocatesNothing: once its buffers are sized, a
// training forward+backward pass of a convolution allocates nothing — not the
// patch matrices, not the output or input gradient, not a matmul closure or a
// view header.
func TestConv2DSteadyStateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := NewConv2D(rng, 3, 16, 3, 1, 1)
	x := tensor.New(8, 3, 32, 32).RandNormal(rng, 0, 1)
	grad := tensor.New(8, 16, 32, 32).RandNormal(rng, 0, 1)
	step := func() {
		c.Forward(x, true)
		c.Backward(grad)
	}
	step() // sizes the buffers
	if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
		t.Fatalf("steady-state Conv2D forward+backward allocates %v objects, want 0", allocs)
	}
}

// TestModelIterationAllocations pins what one steady-state training iteration
// may allocate: nothing. ResNet-8 at the flat-compute shape allocated 1480
// objects and 40.7 MB when every layer allocated its outputs; the downsized
// AlexNet covers the layers ResNet has none of (max pool, flatten, dropout).
// An epoch whose shard is not a multiple of the batch ends on a short batch:
// once both sizes have run, alternating them allocates nothing either, the
// short batch running on a prefix of the full one's buffers (scratch.go).
func TestModelIterationAllocations(t *testing.T) {
	// A product that fans out allocates its closure and wait group; which
	// products do depends on the kernel path. Keep them serial: the pin is on
	// the layers.
	prev := tensor.SetMatMulParallelMinFlops(math.MaxInt64)
	defer tensor.SetMatMulParallelMinFlops(prev)
	models := map[string]func(*rand.Rand) *Network{
		"ResNet-8":      func(rng *rand.Rand) *Network { return ResNetCIFAR(rng, 8, 10) },
		"AlexNet-small": func(rng *rand.Rand) *Network { return DownsizedAlexNet(rng, 32, 10) },
	}
	for name, build := range models {
		rng := rand.New(rand.NewSource(23))
		net := build(rng)
		x := tensor.New(8, 3, 32, 32).RandNormal(rng, 0, 1)
		labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
		step := func() {
			net.ZeroGrads()
			net.Loss(x, labels, true)
			net.Backward()
		}
		step() // sizes the buffers
		if allocs := testing.AllocsPerRun(3, step); allocs != 0 {
			t.Errorf("steady-state %s iteration allocates %v objects, want 0", name, allocs)
		}

		tail := tensor.New(5, 3, 32, 32).RandNormal(rng, 0, 1)
		tailStep := func() {
			net.Loss(tail, labels[:5], true)
			net.Backward()
		}
		tailStep()
		if allocs := testing.AllocsPerRun(3, func() { step(); tailStep() }); allocs != 0 {
			t.Errorf("%s iterations alternating batch 8 and 5 allocate %v objects a pair, want 0", name, allocs)
		}
	}
}

// TestEvalForwardLeavesTrainingPassIntact: an evaluation forward pass between
// a training forward pass and its Backward — same layer, different batch size
// — must not change the gradients Backward computes.
func TestEvalForwardLeavesTrainingPassIntact(t *testing.T) {
	build := func() *Network { return ResNetCIFAR(rand.New(rand.NewSource(24)), 8, 10) }
	rng := rand.New(rand.NewSource(25))
	x := tensor.New(2, 3, 16, 16).RandNormal(rng, 0, 1)
	other := tensor.New(3, 3, 16, 16).RandNormal(rng, 0, 1)
	labels := []int{1, 2}

	plain, interleaved := build(), build()
	plain.Loss(x, labels, true)
	plain.Backward()
	interleaved.Loss(x, labels, true)
	interleaved.Forward(other, false)
	interleaved.Backward()
	for i, g := range plain.Grads() {
		if !sameBits(g.Data(), interleaved.Grads()[i].Data()) {
			t.Fatalf("gradient %d changed when an evaluation pass ran between Forward and Backward", i)
		}
	}
}
