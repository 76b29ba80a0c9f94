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
// The layer picks how it multiplies from its own geometry. A 3×3 kernel at
// stride 1 and pad 1 — every convolution of the CIFAR models but their
// downsampling ones — runs directly on a zero-bordered copy of each image
// (direct.go): its patch matrix is never built. Every other geometry builds
// the (inC·k·k, outH·outW) patch matrix with im2col and multiplies that.
type Conv2D struct {
	inC, outC      int
	kernel, stride int
	pad            int
	direct         bool // 3×3, stride 1, pad 1: the direct path

	weight *tensor.Tensor // (outC, inC*kernel*kernel)
	bias   *tensor.Tensor // (outC)
	gradW  *tensor.Tensor
	gradB  *tensor.Tensor

	// Input geometry of the last training forward pass; inBatch 0 before it.
	inBatch, inH, inW int

	// Layer-owned buffers (scratch.go). in is what Backward reads of the
	// training pass's input, one block per batch item: the bordered image on
	// the direct path, the patch matrix on the im2col path. train and eval are
	// the scratch of a training and of an evaluation forward pass, so an
	// evaluation between a training Forward and its Backward touches nothing
	// the training pass holds. dcol is the im2col path's patch-matrix gradient;
	// wideGrad, its row table gradRows and padDx are the direct path's
	// (direct.go).
	in, out, dx     *tensor.Tensor
	train, eval     convScratch
	dcol            *tensor.Tensor
	wideGrad, padDx *tensor.Tensor
	gradRows        []int
	// Matrix header re-pointed at one batch item of the upstream gradient.
	gradMat *tensor.Tensor
	// noDx: the layer is a network's first, Backward returns nil.
	noDx bool
}

// convScratch is what one kind of forward pass reuses from call to call: on
// the direct path the bordered image of an evaluation pass, the padded-width
// output and the patch-row offset table for the geometry it was built for;
// on the im2col path the patch matrix of an evaluation pass and the headers
// the products see.
type convScratch struct {
	pad, wide           *tensor.Tensor
	off                 []int
	offH, offW          int
	col, colMat, outMat *tensor.Tensor
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
		direct: kernel == 3 && stride == 1 && pad == 1,
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

// span returns the half-open range of output positions o, out of [0,out),
// whose input position o*stride+kOff-pad falls inside [0,in): everything
// outside it reads padding.
func (c *Conv2D) span(kOff, in, out int) (lo, hi int) {
	last := in - 1 + c.pad - kOff // o*stride <= last
	if last < 0 {
		return 0, 0
	}
	if first := c.pad - kOff; first > 0 { // o*stride >= first
		lo = (first + c.stride - 1) / c.stride
	}
	hi = min(last/c.stride+1, out)
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// im2col writes the (inC*k*k, outH*outW) patch matrix of one image of shape
// (inC, h, w) into col, every element of it: each matrix row is a run of
// image-row segments, copied whole — all of them at once where they lie end
// to end — with zeros where the window hangs over the padding.
func (c *Conv2D) im2col(col, img []float32, h, w int) {
	outH, outW := c.outSize(h), c.outSize(w)
	k, stride := c.kernel, c.stride
	plane := outH * outW
	for ch := 0; ch < c.inC; ch++ {
		chImg := img[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < k; ky++ {
			oy0, oy1 := c.span(ky, h, outH)
			for kx := 0; kx < k; kx++ {
				ox0, ox1 := c.span(kx, w, outW)
				row := col[((ch*k+ky)*k+kx)*plane:][:plane]
				if ox0 == ox1 || oy0 == oy1 {
					clear(row)
					continue
				}
				if stride == 1 && outW == w {
					// Output and image rows are as long as each other, so
					// the whole run is one stretch of the image, ky-pad rows
					// and kx-pad columns off; the copy carries the image
					// across each row end, over the columns that read padding.
					lo, hi := oy0*outW+ox0, (oy1-1)*outW+ox1
					clear(row[:lo])
					copy(row[lo:hi], chImg[lo+(ky-c.pad)*w+kx-c.pad:])
					clear(row[hi:])
					for end := oy0*outW + ox1; end < hi; end += outW {
						for i := end; i < end+outW-ox1+ox0; i++ {
							row[i] = 0
						}
					}
					continue
				}
				clear(row[:oy0*outW])
				clear(row[oy1*outW:])
				for oy := oy0; oy < oy1; oy++ {
					dst := row[oy*outW : (oy+1)*outW]
					src := chImg[(oy*stride+ky-c.pad)*w:][:w]
					clear(dst[:ox0])
					clear(dst[ox1:])
					ix := ox0*stride + kx - c.pad
					if stride == 1 {
						copy(dst[ox0:ox1], src[ix:])
						continue
					}
					for ox := ox0; ox < ox1; ox++ {
						dst[ox] = src[ix]
						ix += stride
					}
				}
			}
		}
	}
}

// col2im scatters the gradient of a patch matrix back onto an image gradient
// of shape (inC, h, w), adding segment by segment in im2col's order.
func (c *Conv2D) col2im(col []float32, h, w int, img []float32) {
	outH, outW := c.outSize(h), c.outSize(w)
	k, stride := c.kernel, c.stride
	plane := outH * outW
	for ch := 0; ch < c.inC; ch++ {
		chImg := img[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < k; ky++ {
			oy0, oy1 := c.span(ky, h, outH)
			for kx := 0; kx < k; kx++ {
				ox0, ox1 := c.span(kx, w, outW)
				if ox0 == ox1 || oy0 == oy1 {
					continue
				}
				row := col[((ch*k+ky)*k+kx)*plane:][:plane]
				if stride == 1 {
					// Every segment of the run starts kx-pad to the side
					// of its source: one block of rows, added in one call.
					tensor.AddRows(chImg[(oy0+ky-c.pad)*w+ox0+kx-c.pad:], w, row[oy0*outW+ox0:], outW, oy1-oy0, ox1-ox0)
					continue
				}
				for oy := oy0; oy < oy1; oy++ {
					src := row[oy*outW+ox0 : oy*outW+ox1]
					dst := chImg[(oy*stride+ky-c.pad)*w:][:w]
					ix := ox0*stride + kx - c.pad
					for _, v := range src {
						dst[ix] += v
						ix += stride
					}
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: %s got input shape %v, want (batch,%d,h,w)", c.Name(), x.Shape(), c.inC))
	}
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	out := output(train, &c.out, batch, c.outC, c.outSize(h), c.outSize(w))
	sc := &c.eval
	if train {
		c.inBatch, c.inH, c.inW = batch, h, w
		sc = &c.train
	}
	if c.direct {
		c.forwardDirect(sc, x, out, train)
	} else {
		c.forwardIm2col(sc, x, out, train)
	}
	return out
}

// forwardIm2col is Forward on the im2col path: one patch matrix per batch
// item while training, where Backward needs them all; one reused across the
// batch otherwise.
func (c *Conv2D) forwardIm2col(sc *convScratch, x, out *tensor.Tensor, train bool) {
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	plane := c.outSize(h) * c.outSize(w)
	patch := c.inC * c.kernel * c.kernel
	var colData []float32
	colStep := 0
	if train {
		colData = scratch(&c.in, batch, patch, plane).Data()
		colStep = patch * plane
	} else {
		colData = scratch(&sc.col, patch, plane).Data()
	}
	xData := x.Data()
	outData := out.Data()
	bias := c.bias.Data()
	imgSize := c.inC * h * w
	outImgSize := c.outC * plane
	for b := 0; b < batch; b++ {
		col := colData[b*colStep:][:patch*plane]
		c.im2col(col, xData[b*imgSize:(b+1)*imgSize], h, w)
		dst := outData[b*outImgSize : (b+1)*outImgSize]
		tensor.MatMulInto(view2D(&sc.outMat, dst, c.outC, plane), c.weight, view2D(&sc.colMat, col, patch, plane))
		for oc, bval := range bias {
			tensor.AddScalarSlice(dst[oc*plane:(oc+1)*plane], bval)
		}
	}
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
	var dx *tensor.Tensor
	if !c.noDx {
		dx = scratch(&c.dx, batch, c.inC, h, w)
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
	if c.direct {
		c.backwardDirect(grad, dx)
	} else {
		c.backwardIm2col(grad, dx)
	}
	return dx
}

// backwardIm2col is Backward's products on the im2col path.
func (c *Conv2D) backwardIm2col(grad, dx *tensor.Tensor) {
	batch, h, w := c.inBatch, c.inH, c.inW
	plane := c.outSize(h) * c.outSize(w)
	patch := c.inC * c.kernel * c.kernel
	outImgSize := c.outC * plane
	gradData := grad.Data()
	colData := c.in.Data()
	for b := 0; b < batch; b++ {
		gradMat := view2D(&c.gradMat, gradData[b*outImgSize:(b+1)*outImgSize], c.outC, plane)
		colMat := view2D(&c.train.colMat, colData[b*patch*plane:(b+1)*patch*plane], patch, plane)
		// dW = Σ grad · colᵀ over the batch: the first image overwrites what
		// the last pass left, the rest accumulate in place.
		if b == 0 {
			tensor.MatMulTransBInto(c.gradW, gradMat, colMat)
		} else {
			tensor.MatMulTransBAcc(c.gradW, gradMat, colMat)
		}
	}
	if dx != nil {
		c.dxIm2col(grad, dx)
	}
}

// dxIm2col computes the input gradient image by image as dcol = Wᵀ · grad
// scattered back by col2im.
func (c *Conv2D) dxIm2col(grad, dx *tensor.Tensor) {
	batch, h, w := c.inBatch, c.inH, c.inW
	plane := c.outSize(h) * c.outSize(w)
	patch := c.inC * c.kernel * c.kernel
	imgSize := c.inC * h * w
	outImgSize := c.outC * plane
	dx.Zero() // col2im accumulates
	dxData := dx.Data()
	gradData := grad.Data()
	dcol := scratch(&c.dcol, patch, plane)
	for b := 0; b < batch; b++ {
		gradMat := view2D(&c.gradMat, gradData[b*outImgSize:(b+1)*outImgSize], c.outC, plane)
		tensor.MatMulTransAInto(dcol, c.weight, gradMat)
		c.col2im(dcol.Data(), h, w, dxData[b*imgSize:(b+1)*imgSize])
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.weight, c.bias} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%dx%d,%d->%d,stride=%d,pad=%d)", c.kernel, c.kernel, c.inC, c.outC, c.stride, c.pad)
}
