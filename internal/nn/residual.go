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
type ResidualBlock struct {
	conv1 *Conv2D
	bn1   *BatchNorm
	relu1 *ReLU
	conv2 *Conv2D
	bn2   *BatchNorm
	relu2 *ReLU

	projConv *Conv2D
	projBN   *BatchNorm
}

// NewResidualBlock builds a residual block mapping inC channels to outC
// channels with the given stride on the first convolution.
func NewResidualBlock(rng *rand.Rand, inC, outC, stride int) *ResidualBlock {
	b := &ResidualBlock{
		conv1: NewConv2D(rng, inC, outC, 3, stride, 1),
		bn1:   NewBatchNorm(outC),
		relu1: NewReLU(),
		conv2: NewConv2D(rng, outC, outC, 3, 1, 1),
		bn2:   NewBatchNorm(outC),
		relu2: NewReLU(),
	}
	if inC != outC || stride != 1 {
		b.projConv = NewConv2D(rng, inC, outC, 1, stride, 0)
		b.projBN = NewBatchNorm(outC)
	}
	return b
}

// Forward implements Layer.
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := b.conv1.Forward(x, train)
	main = b.bn1.Forward(main, train)
	main = b.relu1.Forward(main, train)
	main = b.conv2.Forward(main, train)
	main = b.bn2.Forward(main, train)

	shortcut := x
	if b.projConv != nil {
		shortcut = b.projConv.Forward(x, train)
		shortcut = b.projBN.Forward(shortcut, train)
	}
	main.Add(shortcut)
	return b.relu2.Forward(main, train)
}

// Backward implements Layer.
func (b *ResidualBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	grad = b.relu2.Backward(grad)

	// Main path.
	g := b.bn2.Backward(grad)
	g = b.conv2.Backward(g)
	g = b.relu1.Backward(g)
	g = b.bn1.Backward(g)
	dxMain := b.conv1.Backward(g)

	// Shortcut path.
	dxShort := grad
	if b.projConv != nil {
		s := b.projBN.Backward(grad)
		dxShort = b.projConv.Backward(s)
	}
	return dxMain.Add(dxShort)
}

// usePool implements pooler: out is where the block's output comes from, p
// the network's pool. The block reads its input again for the shortcut, so
// whoever produces it keeps it; inside, an output comes from p where a
// convolution or BatchNorm consumes it, and so does every input gradient but
// relu2's, which both paths read.
func (b *ResidualBlock) usePool(out, p *pool) {
	b.conv1.usePool(p, p)
	b.bn1.usePool(nil, p)
	b.relu1.usePool(p, p)
	b.conv2.usePool(p, p)
	b.bn2.usePool(nil, p)
	b.relu2.usePool(out, nil)
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
