package nn

import (
	"fmt"
	"math"

	"dssp/internal/tensor"
)

// BatchNorm is spatial batch normalization over NCHW inputs: each channel is
// normalized by the batch statistics during training and by running
// statistics during evaluation, then scaled and shifted by learned gamma and
// beta. ResNets rely on it for trainability at depth.
type BatchNorm struct {
	channels int
	eps      float64
	momentum float64

	gamma *tensor.Tensor // (channels)
	beta  *tensor.Tensor // (channels)
	gradG *tensor.Tensor
	gradB *tensor.Tensor

	runningMean []float64
	runningVar  []float64

	// Cached values from the last training forward pass.
	lastInput *tensor.Tensor
	lastXHat  []float32
	lastMean  []float64
	lastVar   []float64

	trainBufs
}

// NewBatchNorm returns a batch normalization layer over the given number of
// channels.
func NewBatchNorm(channels int) *BatchNorm {
	bn := &BatchNorm{
		channels:    channels,
		eps:         1e-5,
		momentum:    0.9,
		gamma:       tensor.Full(1, channels),
		beta:        tensor.New(channels),
		gradG:       tensor.New(channels),
		gradB:       tensor.New(channels),
		runningMean: make([]float64, channels),
		runningVar:  make([]float64, channels),
	}
	for i := range bn.runningVar {
		bn.runningVar[i] = 1
	}
	return bn
}

// planesOf returns the accessor of one channel plane of an NCHW buffer with
// ch channels of area values: channel c of batch item b, the contiguous run
// the slice kernels of internal/tensor work on.
func planesOf(ch, area int) func(d []float32, b, c int) []float32 {
	return func(d []float32, b, c int) []float32 { return d[(b*ch+c)*area:][:area] }
}

// Forward implements Layer.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != bn.channels {
		panic(fmt.Sprintf("nn: BatchNorm(%d) got input shape %v", bn.channels, x.Shape()))
	}
	batch, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	area := h * w
	n := float64(batch * area)
	out := bn.output(train, batch, ch, h, w)
	xd := x.Data()
	od := out.Data()
	gamma := bn.gamma.Data()
	beta := bn.beta.Data()

	if train {
		bn.lastInput = x
		if len(bn.lastMean) != ch {
			bn.lastMean = make([]float64, ch)
			bn.lastVar = make([]float64, ch)
		}
		bn.lastXHat = resized(bn.lastXHat, len(xd))
	}

	plane := planesOf(ch, area)
	for c := 0; c < ch; c++ {
		var mean, variance float64
		if train {
			for b := 0; b < batch; b++ {
				mean += tensor.SumF64(plane(xd, b, c))
			}
			mean /= n
			for b := 0; b < batch; b++ {
				variance += tensor.SumSqDevF64(plane(xd, b, c), mean)
			}
			variance /= n
			bn.lastMean[c] = mean
			bn.lastVar[c] = variance
			bn.runningMean[c] = bn.momentum*bn.runningMean[c] + (1-bn.momentum)*mean
			bn.runningVar[c] = bn.momentum*bn.runningVar[c] + (1-bn.momentum)*variance
		} else {
			mean = bn.runningMean[c]
			variance = bn.runningVar[c]
		}
		invStd := 1.0 / math.Sqrt(variance+bn.eps)
		g, bta := float64(gamma[c]), float64(beta[c])
		for b := 0; b < batch; b++ {
			var xhat []float32
			if train {
				xhat = plane(bn.lastXHat, b, c)
			}
			tensor.NormalizePlane(plane(od, b, c), xhat, plane(xd, b, c), mean, invStd, g, bta)
		}
	}
	return out
}

// Backward implements Layer.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if bn.lastInput == nil {
		panic("nn: BatchNorm.Backward called before Forward(train=true)")
	}
	batch, ch, h, w := bn.lastInput.Dim(0), bn.lastInput.Dim(1), bn.lastInput.Dim(2), bn.lastInput.Dim(3)
	area := h * w
	n := float64(batch * area)
	dx := bn.inputGrad(batch, ch, h, w)
	dxd := dx.Data()
	gd := grad.Data()
	gamma := bn.gamma.Data()
	gg := bn.gradG.Data()
	gb := bn.gradB.Data()
	// Added into +0, not stored: a sum that rounds to −0 leaves +0.
	clear(gg)
	clear(gb)

	plane := planesOf(ch, area)
	for c := 0; c < ch; c++ {
		invStd := 1.0 / math.Sqrt(bn.lastVar[c]+bn.eps)
		var sumDy, sumDyXHat float64
		for b := 0; b < batch; b++ {
			s, sx := tensor.SumDotF64(plane(gd, b, c), plane(bn.lastXHat, b, c))
			sumDy += s
			sumDyXHat += sx
		}
		gg[c] += float32(sumDyXHat)
		gb[c] += float32(sumDy)
		coef := float64(gamma[c]) * invStd / n
		for b := 0; b < batch; b++ {
			tensor.NormalizeGradPlane(plane(dxd, b, c), plane(gd, b, c), plane(bn.lastXHat, b, c), coef, n, sumDy, sumDyXHat)
		}
	}
	return dx
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{bn.gamma, bn.beta} }

// Grads implements Layer.
func (bn *BatchNorm) Grads() []*tensor.Tensor { return []*tensor.Tensor{bn.gradG, bn.gradB} }

// Name implements Layer.
func (bn *BatchNorm) Name() string { return fmt.Sprintf("BatchNorm(%d)", bn.channels) }
