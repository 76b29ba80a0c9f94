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

	// The pass in flight, training or evaluation (begin): its input's dims
	// and each channel's mean and 1/σ.
	dims         [4]int
	mean, invStd []float64

	// What the last training pass leaves for Backward: its dims (zero before
	// one), x̂, the batch variances and, when a ReLU ran in the same pass
	// (ResidualBlock), the ReLU's mask, one bit per element.
	trainDims [4]int
	lastXHat  []float32
	lastVar   []float64
	mask      []uint64

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

// Forward implements Layer.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bn.begin(x, train, false)
	out := bn.outputLike(train, x)
	bn.normalize(x, out, nil, false, train)
	return out
}

// begin starts a pass over x: it takes each channel's statistics — the
// batch's, folded into the running ones, when training; the running ones
// when evaluating — and, when training, sizes what Backward reads: x̂ and,
// with relu, a cleared mask.
func (bn *BatchNorm) begin(x *tensor.Tensor, train, relu bool) {
	if x.Dims() != 4 || x.Dim(1) != bn.channels {
		panic(fmt.Sprintf("nn: BatchNorm(%d) got input shape %v", bn.channels, x.Shape()))
	}
	batch, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	area := h * w
	n := float64(batch * area)
	bn.dims = [4]int{batch, ch, h, w}
	bn.mean, bn.invStd = resized(bn.mean, ch), resized(bn.invStd, ch)
	if train {
		bn.trainDims = bn.dims
		bn.lastVar = resized(bn.lastVar, ch)
		bn.lastXHat = resized(bn.lastXHat, x.Size())
		if relu {
			bn.mask = resized(bn.mask, (x.Size()+63)/64)
			clear(bn.mask)
		}
	}
	xd := x.Data()
	for c := 0; c < ch; c++ {
		mean, variance := bn.runningMean[c], bn.runningVar[c]
		if train {
			mean, variance = 0, 0
			for b := 0; b < batch; b++ {
				mean += tensor.SumF64(xd[(b*ch+c)*area:][:area])
			}
			mean /= n
			for b := 0; b < batch; b++ {
				variance += tensor.SumSqDevF64(xd[(b*ch+c)*area:][:area], mean)
			}
			variance /= n
			bn.lastVar[c] = variance
			bn.runningMean[c] = bn.momentum*bn.runningMean[c] + (1-bn.momentum)*mean
			bn.runningVar[c] = bn.momentum*bn.runningVar[c] + (1-bn.momentum)*variance
		}
		bn.mean[c] = mean
		bn.invStd[c] = 1.0 / math.Sqrt(variance+bn.eps)
	}
}

// imageRows is where a pass writes one image: channel c's row r starts at
// data[c*plane+r*row+off], as many values as the image is wide.
type imageRows struct {
	data            []float32
	plane, row, off int
}

// normalize writes the pass begun on x into out, which has x's shape: each
// value normalised, scaled and shifted, plus sc's where sc is not nil,
// through a ReLU with relu. sc may be out itself.
func (bn *BatchNorm) normalize(x, out, sc *tensor.Tensor, relu, train bool) {
	ch, h, w := bn.dims[1], bn.dims[2], bn.dims[3]
	var scd []float32
	if sc != nil {
		scd = sc.Data()
	}
	img := ch * h * w
	for b := 0; b < bn.dims[0]; b++ {
		bn.normalizeImage(x, b, imageRows{data: out.Data()[b*img:][:img], plane: h * w, row: w}, scd, relu, train)
	}
}

// normalizeImage writes batch item b of the pass begun on x to dst, sc's
// values added where sc is not nil, through a ReLU with relu: one pass over
// each plane, which also leaves x̂ and the ReLU's bits for Backward when
// training.
func (bn *BatchNorm) normalizeImage(x *tensor.Tensor, b int, dst imageRows, sc []float32, relu, train bool) {
	ch, area, w := bn.dims[1], bn.dims[2]*bn.dims[3], bn.dims[3]
	xd, gamma, beta := x.Data(), bn.gamma.Data(), bn.beta.Data()
	var mask []uint64
	if train && relu {
		mask = bn.mask
	}
	for c := 0; c < ch; c++ {
		at := (b*ch + c) * area
		var xhat, s []float32
		if train {
			xhat = bn.lastXHat[at:][:area]
		}
		if sc != nil {
			s = sc[at:][:area]
		}
		tensor.NormalizePlane(dst.data[c*dst.plane+dst.off:], dst.row, w, xhat, xd[at:][:area], s, mask, at, relu,
			bn.mean[c], bn.invStd[c], float64(gamma[c]), float64(beta[c]))
	}
}

// Backward implements Layer.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := bn.inputGrad(bn.trainDims[:]...)
	bn.backward(grad, dx, nil)
	return dx
}

// backward writes to dx the input gradient of the last training pass for
// the upstream gradient dy read through a ReLU's mask (nil: as it is). dx
// may be dy itself: a channel's gradient is written once its sums are taken.
func (bn *BatchNorm) backward(dy, dx *tensor.Tensor, mask []uint64) {
	if bn.trainDims[0] == 0 {
		panic("nn: BatchNorm.Backward called before Forward(train=true)")
	}
	batch, ch, area := bn.trainDims[0], bn.trainDims[1], bn.trainDims[2]*bn.trainDims[3]
	n := float64(batch * area)
	dxd, gd := dx.Data(), dy.Data()
	gamma := bn.gamma.Data()
	gg := bn.gradG.Data()
	gb := bn.gradB.Data()
	// Added into +0, not stored: a sum that rounds to −0 leaves +0.
	clear(gg)
	clear(gb)

	for c := 0; c < ch; c++ {
		invStd := 1.0 / math.Sqrt(bn.lastVar[c]+bn.eps)
		var sumDy, sumDyXHat float64
		for b := 0; b < batch; b++ {
			at := (b*ch + c) * area
			s, sx := tensor.SumDotF64(gd[at:][:area], bn.lastXHat[at:][:area], mask, at)
			sumDy += s
			sumDyXHat += sx
		}
		gg[c] += float32(sumDyXHat)
		gb[c] += float32(sumDy)
		coef := float64(gamma[c]) * invStd / n
		for b := 0; b < batch; b++ {
			at := (b*ch + c) * area
			tensor.NormalizeGradPlane(dxd[at:][:area], gd[at:][:area], bn.lastXHat[at:][:area], mask, at, coef, n, sumDy, sumDyXHat)
		}
	}
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{bn.gamma, bn.beta} }

// Grads implements Layer.
func (bn *BatchNorm) Grads() []*tensor.Tensor { return []*tensor.Tensor{bn.gradG, bn.gradB} }

// Name implements Layer.
func (bn *BatchNorm) Name() string { return fmt.Sprintf("BatchNorm(%d)", bn.channels) }
