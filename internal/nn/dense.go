package nn

import (
	"fmt"
	"math/rand"

	"dssp/internal/tensor"
)

// Dense is a fully connected layer computing y = xW + b for x of shape
// (batch, in) and W of shape (in, out). Fully connected layers are what give
// the downsized AlexNet its large parameter count and hence its large
// communication cost in the paper's §V-C analysis.
type Dense struct {
	in, out int

	weight *tensor.Tensor // (in, out)
	bias   *tensor.Tensor // (out)
	gradW  *tensor.Tensor
	gradB  *tensor.Tensor

	lastInput *tensor.Tensor
	trainBufs
	// noDx: the layer is a network's first, Backward returns nil.
	noDx bool
}

// skipInputGrad tells the layer that no one reads what Backward returns.
func (d *Dense) skipInputGrad() { d.noDx = true }

// NewDense returns a dense layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{
		in:     in,
		out:    out,
		weight: tensor.New(in, out),
		bias:   tensor.New(out),
		gradW:  tensor.New(in, out),
		gradB:  tensor.New(out),
	}
	d.weight.XavierInit(rng, in, out)
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != d.in {
		panic(fmt.Sprintf("nn: %s got input shape %v, want (batch,%d)", d.Name(), x.Shape(), d.in))
	}
	if train {
		d.lastInput = x
	}
	batch := x.Dim(0)
	out := tensor.MatMulInto(d.output(train, batch, d.out), x, d.weight)
	data := out.Data()
	bias := d.bias.Data()
	for b := 0; b < batch; b++ {
		tensor.AddSlice(data[b*d.out:(b+1)*d.out], bias)
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor { return d.backward(grad, true) }

// backward is Backward, leaving gradW unwritten unless weights is set:
// Network.BackwardFactors hands dW on as its factors instead.
func (d *Dense) backward(grad *tensor.Tensor, weights bool) *tensor.Tensor {
	if d.lastInput == nil {
		panic("nn: Dense.Backward called before Forward(train=true)")
	}
	// dW = xᵀ · grad, db = column sums of grad, dx = grad · Wᵀ.
	if weights {
		tensor.MatMulTransAInto(d.gradW, d.lastInput, grad)
	}
	batch := grad.Dim(0)
	gdata := grad.Data()
	gb := d.gradB.Data()
	clear(gb) // summed from +0, not from row 0: a column of −0 sums to +0
	for b := 0; b < batch; b++ {
		tensor.AddSlice(gb, gdata[b*d.out:(b+1)*d.out])
	}
	if d.noDx {
		return nil
	}
	return tensor.MatMulTransBInto(d.inputGrad(batch, d.in), grad, d.weight)
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.weight, d.bias} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gradW, d.gradB} }

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d->%d)", d.in, d.out) }
