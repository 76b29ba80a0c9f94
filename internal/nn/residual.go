package nn

import (
	"fmt"
	"math/rand"

	"dssp/internal/tensor"
)

// ResidualBlock is the basic two-convolution residual block of the CIFAR
// ResNets: conv3x3 → BN → ReLU → conv3x3 → BN, added to a shortcut (identity,
// or a 1x1 projection when the block changes resolution or channel count),
// followed by a ReLU.
//
// Each BatchNorm runs its ReLU and the shortcut's add in its own normalise
// pass (BatchNorm.normalizeImage): bn1 writes conv2's input straight into
// conv2's bordered images, bn2 writes the block's output, and projBN the
// shortcut into that output for bn2 to read in place. Backward reads the
// upstream gradient through the ReLUs' masks and runs the main path in one
// buffer (backward).
type ResidualBlock struct {
	conv1 *Conv2D
	bn1   *BatchNorm
	conv2 *Conv2D
	bn2   *BatchNorm

	projConv *Conv2D
	projBN   *BatchNorm

	// The block's output.
	trainBufs
}

// NewResidualBlock builds a residual block mapping inC channels to outC
// channels with the given stride on the first convolution.
func NewResidualBlock(rng *rand.Rand, inC, outC, stride int) *ResidualBlock {
	b := &ResidualBlock{
		conv1: NewConv2D(rng, inC, outC, 3, stride, 1),
		bn1:   NewBatchNorm(outC),
		conv2: NewConv2D(rng, outC, outC, 3, 1, 1),
		bn2:   NewBatchNorm(outC),
	}
	if inC != outC || stride != 1 {
		b.projConv = NewConv2D(rng, inC, outC, 1, stride, 0)
		b.projBN = NewBatchNorm(outC)
	}
	return b
}

// Forward implements Layer.
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h1 := b.conv1.Forward(x, train)
	b.bn1.begin(h1, train, true)
	h2 := b.conv2.forwardFilled(h1.Dim(0), h1.Dim(2), h1.Dim(3), train, func(g *convGeom, i int, pad []float32) {
		b.bn1.normalizeImage(h1, i, b.conv2.borderedRows(g, pad), nil, true, train)
	})
	b.bn2.begin(h2, train, true)
	var out, shortcut *tensor.Tensor
	if b.projConv == nil {
		out, shortcut = b.outputLike(train, h2), x
	} else {
		// The projection is normalised into the block's output, or, where
		// that comes from the pool, in place: the pool's other buffer of
		// this geometry holds h2.
		s := b.projConv.Forward(x, train)
		b.projBN.begin(s, train, false)
		out = s
		if train && b.outPool == nil {
			out = b.outputLike(true, h2)
		}
		b.projBN.normalize(s, out, nil, false, train)
		shortcut = out
	}
	b.bn2.normalize(h2, out, shortcut, true, train)
	return out
}

// Backward implements Layer.
//
// The main path's gradient lives in one buffer: bn2's input gradient, which
// conv2, bn1 and — in an identity block, whose conv1 maps a shape to itself
// — conv1 overwrite in place. A projection block writes that buffer over the
// upstream gradient once projBN has read it, and takes conv1's and the
// projection's input gradients from their layers; an identity block adds the
// masked upstream gradient into its main path's.
func (b *ResidualBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	mask := b.bn2.mask
	if b.projConv == nil {
		g := b.bn2.inputGradLike(grad)
		b.bn2.backward(grad, g, mask)
		b.conv2.backwardInPlace(g)
		b.bn1.backward(g, g, b.bn1.mask)
		b.conv1.backwardInPlace(g)
		tensor.MaskGrad(g.Data(), grad.Data(), mask, 0, true)
		return g
	}
	s := b.projBN.inputGradLike(grad)
	b.projBN.backward(grad, s, mask)
	dxShort := b.projConv.Backward(s)
	b.bn2.backward(grad, grad, mask)
	b.conv2.backwardInPlace(grad)
	b.bn1.backward(grad, grad, b.bn1.mask)
	return b.conv1.Backward(grad).Add(dxShort)
}

// usePool implements pooler: out is where the block's output comes from, p
// the network's pool. The block reads its input again for the shortcut, so
// whoever produces it keeps it. Inside, the convolutions' outputs and every
// input gradient a sub-layer takes come from p; the BatchNorms write no
// output of their own.
func (b *ResidualBlock) usePool(out, p *pool) {
	b.trainBufs.usePool(out, nil)
	b.conv1.usePool(p, p)
	b.conv2.usePool(p, p)
	b.bn2.usePool(nil, p)
	if b.projConv != nil {
		b.projConv.usePool(p, p)
		b.projBN.usePool(nil, p)
	}
}

// sublayers returns the block's parameterized sub-layers in a stable order.
func (b *ResidualBlock) sublayers() []Layer {
	out := []Layer{b.conv1, b.bn1, b.conv2, b.bn2}
	if b.projConv != nil {
		out = append(out, b.projConv, b.projBN)
	}
	return out
}

// Params implements Layer.
func (b *ResidualBlock) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range b.sublayers() {
		out = append(out, l.Params()...)
	}
	return out
}

// Grads implements Layer.
func (b *ResidualBlock) Grads() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range b.sublayers() {
		out = append(out, l.Grads()...)
	}
	return out
}

// Name implements Layer.
func (b *ResidualBlock) Name() string {
	return fmt.Sprintf("ResidualBlock(proj=%v)", b.projConv != nil)
}
