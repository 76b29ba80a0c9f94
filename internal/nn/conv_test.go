package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dssp/internal/tensor"
)

// refIm2col and refCol2im are the patch matrix of one (inC, h, w) image and
// its gradient's scatter back onto the image, one bounds test per element:
// the reference Conv2D is held to (direct_test.go). Both touch only the
// buffers of the goroutine that calls them, so -race is told to skip them:
// instrumented, every element they move costs two checked accesses.
//
//go:norace
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

//go:norace
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

// TestConv2DSteadyStateAllocatesNothing: once its buffers are sized, a
// training forward+backward pass of a convolution allocates nothing — not the
// bordered images, not the output or input gradient, not a matmul closure or a
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

// TestConvRejectsInputSmallerThanKernel: an input that, padded, is smaller
// than the kernel in either direction has no output position; Forward panics
// naming the layer and the shape, as it does for a wrong channel count,
// instead of returning a 1×1 output.
func TestConvRejectsInputSmallerThanKernel(t *testing.T) {
	for _, shape := range [][]int{{1, 1, 2, 2}, {1, 1, 5, 2}, {1, 1, 2, 5}} {
		c := NewConv2D(rand.New(rand.NewSource(26)), 1, 1, 3, 2, 0)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.Name()) || !strings.Contains(msg, fmt.Sprint(shape)) {
					t.Errorf("Forward on %v: panic %q, want one naming %s and the shape", shape, msg, c.Name())
				}
			}()
			c.Forward(tensor.New(shape...), true)
		}()
	}
}
