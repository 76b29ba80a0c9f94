package nn

import (
	"fmt"
	"math/rand"

	"dssp/internal/tensor"
)

// ReLU is the rectified linear activation applied element-wise: an element
// passes, and so does its gradient, unless it is below zero (NaN and both
// zeros pass).
type ReLU struct {
	// lastInput is the training pass's input, whose signs Backward reads: a
	// network keeps a ReLU's input, as a Dense's, out of its pool (scratch.go),
	// so it stays intact until Backward.
	lastInput *tensor.Tensor
	trainBufs
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		r.lastInput = x
	}
	out := r.outputLike(train, x)
	tensor.MaskNonNegative(out.Data(), x.Data(), x.Data())
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastInput == nil || r.lastInput.Size() != grad.Size() {
		panic("nn: ReLU.Backward called without a matching Forward(train=true)")
	}
	out := r.inputGradLike(grad)
	tensor.MaskNonNegative(out.Data(), grad.Data(), r.lastInput.Data())
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// Flatten reshapes an NCHW activation into (batch, features) so that dense
// layers can follow convolutional stages.
type Flatten struct {
	lastShape []int
	trainBufs
}

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch := x.Dim(0)
	if train {
		f.lastShape = f.lastShape[:0]
		for i := 0; i < x.Dims(); i++ {
			f.lastShape = append(f.lastShape, x.Dim(i))
		}
	}
	out := f.output(train, batch, x.Size()/batch)
	copy(out.Data(), x.Data())
	return out
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.lastShape == nil {
		panic("nn: Flatten.Backward called before Forward(train=true)")
	}
	dx := f.inputGrad(f.lastShape...)
	if dx.Size() != grad.Size() {
		panic(fmt.Sprintf("nn: Flatten got gradient shape %v for input shape %v", grad.Shape(), f.lastShape))
	}
	copy(dx.Data(), grad.Data())
	return dx
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }

// Dropout zeroes a random fraction of activations during training and
// rescales the rest, as used between the fully connected layers of AlexNet.
type Dropout struct {
	rate float64
	rng  *rand.Rand
	mask []float32
	trainBufs
}

// NewDropout returns a dropout layer that drops activations with probability
// rate in [0,1).
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v outside [0,1)", rate))
	}
	return &Dropout{rate: rate, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return x.Clone()
	}
	out := d.outputLike(true, x)
	data := out.Data()
	copy(data, x.Data())
	if d.rate == 0 {
		return out
	}
	d.mask = resized(d.mask, len(data))
	keep := float32(1.0 / (1.0 - d.rate))
	for i := range data {
		if d.rng.Float64() < d.rate {
			d.mask[i] = 0
			data[i] = 0
		} else {
			d.mask[i] = keep
			data[i] *= keep
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := d.inputGradLike(grad)
	data := out.Data()
	copy(data, grad.Data())
	if len(d.mask) != len(data) {
		// Dropout was a no-op during forward (rate 0); pass gradient through.
		return out
	}
	for i := range data {
		data[i] *= d.mask[i]
	}
	return out
}

// Params implements Layer.
func (d *Dropout) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (d *Dropout) Grads() []*tensor.Tensor { return nil }

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("Dropout(%.2f)", d.rate) }
