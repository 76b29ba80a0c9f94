package nn

import (
	"math"

	"dssp/internal/tensor"
)

// The direct path of a 3×3, stride-1, pad-1 convolution (Conv2D). Each image
// is copied once into a zero-bordered buffer of shape (inC, h+3, w+2): a zero
// row above the image, two below, a zero column on each side. Patch-matrix
// row (ic, ky, kx) is then that buffer itself, shifted by ic planes, ky rows
// and kx columns: a table of 9·inC offsets (tensor.MatMulOffset) stands in
// for the (inC·9, h·w) matrix im2col would build, and the training pass keeps
// the bordered images instead of the patch matrices.
//
// The shifted views are read over the buffer's whole width, so each output
// row is computed w+2 wide — h·(w+2) columns per plane, 1088, 288 and 80 on
// ResNet-8's 32, 16 and 8, whole 16-column tiles — and its last two columns,
// which read across the row end, are dropped when the plane is compacted.
// The second zero row below the image is room for those two columns of the
// last row to read into.
//
// Backward runs the two products the same way round. dW reads the bordered
// images as runs of w per output row (tensor.MatMulTransBOffset). dX adds
// each tap's product Wᵀ·grad, the gradient laid out w+2 wide with zeros in
// the two dropped columns, onto a bordered dx shifted by the tap, tap by tap
// in im2col's order, and copies the interior out: col2im's sums, in its
// order, without a patch-matrix gradient.
//
// Numerics: the forward pass multiplies the same operands in the same k
// order as im2col + MatMulInto, so it is bit for bit that product; dX is bit
// for bit what col2im leaves, as each tap's product is summed from zero and
// added once, and the zero columns add +0 (the weights are finite; with a
// non-finite weight dX takes the im2col path, see backwardDirect); dW sums in
// the im2col path's order on the Go loops, and on the panels wherever w is a
// multiple of eight (all of ResNet-8's planes), elsewhere within the
// reassociation bound.

// offsets returns sc's table of where patch row (ic, ky, kx) starts in a
// bordered image of an h×w input, rebuilt when the geometry changes.
func (c *Conv2D) offsets(sc *convScratch, h, w int) []int {
	if len(sc.off) == c.inC*9 && sc.offH == h && sc.offW == w {
		return sc.off
	}
	sc.off = resized(sc.off, c.inC*9)
	sc.offH, sc.offW = h, w
	ld, plane := w+2, (h+3)*(w+2)
	for ic := 0; ic < c.inC; ic++ {
		for t := 0; t < 9; t++ {
			sc.off[ic*9+t] = ic*plane + t/3*ld + t%3
		}
	}
	return sc.off
}

// border copies the (inC, h, w) image img into the interior of the bordered
// image pad. The border is zero from the buffer's allocation on and never
// written: a buffer keeps its layout for as long as the dims after the batch
// repeat, a smaller batch on a prefix of it (scratch.go).
func (c *Conv2D) border(pad, img []float32, h, w int) {
	ld, plane := w+2, (h+3)*(w+2)
	for ch := 0; ch < c.inC; ch++ {
		for y := 0; y < h; y++ {
			copy(pad[ch*plane+(y+1)*ld+1:][:w], img[(ch*h+y)*w:][:w])
		}
	}
}

// forwardDirect is Forward on the direct path: the bordered images of a
// training pass are kept, one per batch item, for Backward; an evaluation
// pass reuses one.
func (c *Conv2D) forwardDirect(sc *convScratch, x, out *tensor.Tensor, train bool) {
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	ld, plane := w+2, h*w
	wideN := h * ld
	padSize := c.inC * (h + 3) * ld
	var padData []float32
	padStep := 0
	if train {
		padData = c.in.get(batch, c.inC, h+3, ld).Data()
		padStep = padSize
	} else {
		padData = sc.pad.get(c.inC, h+3, ld).Data()
	}
	wide := sc.wide.get(c.outC, h, ld).Data()
	off := c.offsets(sc, h, w)
	xData, outData, weight := x.Data(), out.Data(), c.weight.Data()
	imgSize, outImgSize := c.inC*plane, c.outC*plane
	for b := 0; b < batch; b++ {
		pad := padData[b*padStep:][:padSize]
		c.border(pad, xData[b*imgSize:][:imgSize], h, w)
		tensor.MatMulOffset(wide, wideN, weight, c.outC, c.inC*9, 1, pad, off, wideN, false)
		// Compact the plane, the bias added on the way.
		dst := outData[b*outImgSize:][:outImgSize]
		for oc, bval := range c.bias.Data() {
			row := wide[oc*wideN:][:wideN]
			tensor.AddScalarSlice(row, bval)
			for y := 0; y < h; y++ {
				copy(dst[(oc*h+y)*w:][:w], row[y*ld:])
			}
		}
	}
}

// backwardDirect is Backward's products on the direct path.
func (c *Conv2D) backwardDirect(grad, dx *tensor.Tensor) {
	batch, h, w := c.inBatch, c.inH, c.inW
	ld, plane := w+2, h*w
	padPlane := (h + 3) * ld
	padSize := c.inC * padPlane
	outImgSize := c.outC * plane
	gradData, padData := grad.Data(), c.in.data
	off := c.offsets(&c.train, h, w)
	for b := 0; b < batch; b++ {
		// dW = Σ grad · colᵀ over the batch, col read out of the bordered
		// image: the first image overwrites, the rest accumulate.
		gradMat := view2D(&c.gradMat, gradData[b*outImgSize:][:outImgSize], c.outC, plane)
		tensor.MatMulTransBOffset(c.gradW, gradMat, padData[b*padSize:][:padSize], off, w, h, ld, b > 0)
	}
	if dx == nil {
		return
	}
	weight := c.weight.Data()
	if s := tensor.SumSlice(weight); math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) {
		// A non-finite weight times a dropped column's zero is NaN, and the
		// dropped columns of a tap reach the one image column the tap never
		// touches; the patch-matrix gradient keeps to the taps.
		c.dxIm2col(grad, dx)
		return
	}
	wideN := h * ld
	wideGrad := c.wideGrad.get(c.outC, h, ld).Data()
	padDx := c.padDx.get(c.inC, h+3, ld).Data()
	if len(c.gradRows) != c.outC || c.outC > 1 && c.gradRows[1] != wideN {
		c.gradRows = resized(c.gradRows, c.outC)
		for oc := range c.gradRows {
			c.gradRows[oc] = oc * wideN
		}
	}
	dxData := dx.Data()
	imgSize := c.inC * plane
	for b := 0; b < batch; b++ {
		gm := gradData[b*outImgSize:][:outImgSize]
		for oc := 0; oc < c.outC; oc++ {
			for y := 0; y < h; y++ {
				copy(wideGrad[oc*wideN+y*ld:][:w], gm[(oc*h+y)*w:])
			}
		}
		// Tap t = (ky, kx): dx rows ic, shifted ky rows and kx columns, +=
		// Σ over oc of W[oc][ic·9+t] · grad[oc].
		clear(padDx)
		for t := 0; t < 9; t++ {
			tensor.MatMulOffset(padDx[t/3*ld+t%3:], padPlane, weight[t:], c.inC, 9, c.inC*9, wideGrad, c.gradRows, wideN, true)
		}
		img := dxData[b*imgSize:][:imgSize]
		for ch := 0; ch < c.inC; ch++ {
			for y := 0; y < h; y++ {
				copy(img[(ch*h+y)*w:][:w], padDx[ch*padPlane+(y+1)*ld+1:])
			}
		}
	}
}
