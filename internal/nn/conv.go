package nn

import (
	"fmt"
	"math/rand"

	"dssp/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs with square kernels, constant
// stride and zero padding. Convolutional layers carry few parameters but
// dominate compute time, the other half of the paper's
// compute/communication-ratio argument (§V-C).
//
// Every geometry multiplies the same way (direct.go): each image is copied
// once into a zero-bordered buffer split into stride phases, and the
// products read their patch rows in place out of it through a table of
// offsets. No (inC·k·k, outH·outW) patch matrix is built, in either pass.
type Conv2D struct {
	inC, outC      int
	kernel, stride int
	pad            int

	weight *tensor.Tensor // (outC, inC*kernel*kernel)
	bias   *tensor.Tensor // (outC)
	gradW  *tensor.Tensor
	gradB  *tensor.Tensor

	// Input geometry of the last training forward pass; inBatch 0 before it.
	inBatch, inH, inW int

	// Buffers (scratch.go): trainBufs the output and the input gradient, which
	// a Network may pool. train and eval are the scratch of a training and of
	// an evaluation forward pass, so an evaluation between a training Forward
	// and its Backward touches nothing the training pass holds: train keeps
	// the bordered images, one per batch item, that Backward reads.
	trainBufs
	train, eval convScratch
	// Matrix header re-pointed at one batch item of the upstream gradient.
	gradMat *tensor.Tensor
	// noDx: the layer is a network's first, Backward returns nil.
	noDx bool
}

// convScratch is what one kind of forward pass reuses from call to call: the
// bordered images, the padded-width output and the layout of the input size
// they were built for; a training pass's Backward adds the upstream gradient
// laid out as wide is and the bordered input gradient (direct.go).
type convScratch struct {
	pad, wide       buffer
	wideGrad, padDx buffer
	geom            convGeom
}

// skipInputGrad tells the layer that no one reads what Backward returns.
func (c *Conv2D) skipInputGrad() { c.noDx = true }

// NewConv2D returns a convolution layer with He-initialized weights.
func NewConv2D(rng *rand.Rand, inC, outC, kernel, stride, pad int) *Conv2D {
	if kernel <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid conv geometry kernel=%d stride=%d pad=%d", kernel, stride, pad))
	}
	c := &Conv2D{
		inC: inC, outC: outC, kernel: kernel, stride: stride, pad: pad,
		weight: tensor.New(outC, inC*kernel*kernel),
		bias:   tensor.New(outC),
		gradW:  tensor.New(outC, inC*kernel*kernel),
		gradB:  tensor.New(outC),
	}
	c.weight.HeInit(rng, inC*kernel*kernel)
	return c
}

// outSize returns the spatial output size for an input of the given size.
func (c *Conv2D) outSize(in int) int {
	return (in+2*c.pad-c.kernel)/c.stride + 1
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.inC || x.Dim(2)+2*c.pad < c.kernel || x.Dim(3)+2*c.pad < c.kernel {
		panic(fmt.Sprintf("nn: %s got input shape %v, want (batch,%d,h,w) with h+2·pad and w+2·pad at least %d", c.Name(), x.Shape(), c.inC, c.kernel))
	}
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	sc := &c.eval
	if train {
		c.inBatch, c.inH, c.inW = batch, h, w
		sc = &c.train
	}
	g := c.layout(sc, h, w)
	out := c.output(train, batch, c.outC, g.outH, g.outW)
	c.forward(sc, x, out, train)
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.inBatch == 0 {
		panic("nn: Conv2D.Backward called before Forward(train=true)")
	}
	batch, h, w := c.inBatch, c.inH, c.inW
	plane := c.outSize(h) * c.outSize(w)
	if grad.Size() != batch*c.outC*plane {
		panic(fmt.Sprintf("nn: %s got gradient shape %v for a (%d,%d,%d,%d) input", c.Name(), grad.Shape(), batch, c.inC, h, w))
	}
	gradData := grad.Data()
	gb := c.gradB.Data()
	clear(gb)
	outImgSize := c.outC * plane
	for b := 0; b < batch; b++ {
		// The gradient is only read, so alias it.
		gm := gradData[b*outImgSize : (b+1)*outImgSize]
		// db += per-channel sums
		for oc := 0; oc < c.outC; oc++ {
			gb[oc] += tensor.SumSlice(gm[oc*plane : (oc+1)*plane])
		}
	}
	c.weightGrad(grad)
	if c.noDx {
		return nil
	}
	dx := c.inputGrad(batch, c.inC, h, w)
	c.inputGradient(grad, dx)
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.weight, c.bias} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%dx%d,%d->%d,stride=%d,pad=%d)", c.kernel, c.kernel, c.inC, c.outC, c.stride, c.pad)
}
