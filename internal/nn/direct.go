package nn

import (
	"fmt"
	"math"

	"dssp/internal/tensor"
)

// How Conv2D multiplies, at every kernel k, stride s and pad p. Each image is
// copied once into a zero-bordered buffer split into stride phases: bordered
// pixel (Y, X) — image pixel (Y-p, X-p), or zero — goes to phase
// (Y mod s, X mod s), at row Y/s and column X/s of that phase's plane. Output
// (oy, ox)'s tap (ky, kx) reads bordered pixel (s·oy+ky, s·ox+kx), which is
// phase (ky mod s, kx mod s) at (oy+ky/s, ox+kx/s): within its phase every
// tap is a stride-1 shift (Zhang, Franchetti & Low, ICML'18). Patch-matrix
// row (ic, ky, kx) is then the buffer itself from one offset on, and a table
// of inC·k·k offsets (tensor.MatMulOffset) stands in for the
// (inC·k·k, outH·outW) matrix im2col would build; the training pass keeps the
// bordered images instead of patch matrices.
//
// Layout, per image: [ic][phase][row][column]. A tap reads no phase past the
// kernel, so there are min(s, k)² phases. Each is a plane wp = outW+q columns
// wide, q = (k-1)/s the largest shift. Each output row is computed wp wide
// and its last q columns, which read across the row end, are dropped when the
// plane is compacted; the outH·wp columns are rounded up to whole 16-column
// tiles of the product panels (cols), the rest of the row loops' work. A plane
// has the least number of rows that holds the last tap's cols columns. At
// s = 1, k = 3, p = 1 on ResNet-8's 32, 16 and 8 that is (inC, h+3, w+2):
// the image with a zero row above, two below and a zero column on each side.
// Only the pixels some tap reads are copied in; every other element is zero.
//
// Backward runs the two products the same way round. dW reads the bordered
// images as runs of outW, wp apart (tensor.MatMulTransBOffset), one run where
// q = 0. dX adds each tap's product Wᵀ·grad, the gradient laid out cols wide
// with zeros in the dropped columns, onto a bordered dx shifted by the tap,
// tap by tap in im2col's order, and copies the pixels the taps read out:
// col2im's sums, in its order, without a patch-matrix gradient.
//
// Numerics: the forward pass multiplies the same operands in the same k
// order as an im2col patch matrix times the weights, so it is bit for bit
// that product; dX is bit for bit what col2im leaves, as each tap's product
// is summed from zero and added once, and the zero columns add +0. With a
// non-finite weight a zero column times it is NaN, so dX runs the same tap
// products one output row at a time over outW columns, which never read a
// dropped column. dW sums in the patch matrix's order on the Go loops, and on
// the panels wherever outW is a multiple of eight (all of ResNet-8's planes)
// or q = 0, elsewhere within the reassociation bound.

// convGeom is the bordered, phase-split layout of one input size.
type convGeom struct {
	h, w       int
	outH, outW int
	phases     int // per axis: min(stride, kernel)
	wp, rows   int // a phase plane's width and rows
	plane      int // wp·rows
	size       int // one bordered image: inC·phases²·plane
	cols       int // columns computed per output plane: outH·wp, in whole tiles
	// off[(ic·k+ky)·k+kx] is where patch row (ic, ky, kx) starts in a
	// bordered image; the first k·k are the taps' shifts within a channel.
	off []int
	// gradRows[oc] = oc·cols: the rows of the wide gradient.
	gradRows []int
	// partial: some image pixel is read by no tap.
	partial bool
}

// tile is the column width of the product panels (internal/tensor): columns
// past the last whole tile run in the slower row loops.
const tile = 16

// layout returns sc's layout for an h×w input, rebuilt when the size changes.
// A rebuild clears sc's bordered images and wide gradient: their borders and
// dropped columns are zero from then on and never written, for as long as
// the size repeats, whatever the batch (scratch.go keeps a buffer's storage
// while its dims after the batch do).
func (c *Conv2D) layout(sc *convScratch, h, w int) *convGeom {
	g := &sc.geom
	if g.h == h && g.w == w && g.off != nil {
		return g
	}
	k, s := c.kernel, c.stride
	q := (k - 1) / s
	g.h, g.w = h, w
	g.outH, g.outW = c.outSize(h), c.outSize(w)
	g.phases = min(s, k)
	g.wp = g.outW + q
	g.cols = (g.outH*g.wp + tile - 1) / tile * tile
	g.rows = q + (q+g.cols+g.wp-1)/g.wp
	g.plane = g.wp * g.rows
	g.size = c.inC * g.phases * g.phases * g.plane
	g.off = resized(g.off, c.inC*k*k)
	for ic := 0; ic < c.inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				phase := (ic*g.phases+ky%s)*g.phases + kx%s
				g.off[(ic*k+ky)*k+kx] = phase*g.plane + ky/s*g.wp + kx/s
			}
		}
	}
	g.gradRows = resized(g.gradRows, c.outC)
	for oc := range g.gradRows {
		g.gradRows[oc] = oc * g.cols
	}
	lastY, lastX := s*(g.outH-1)+k-1, s*(g.outW-1)+k-1
	g.partial = s > k || lastY < h-1+c.pad || lastX < w-1+c.pad
	clear(sc.pad.data)
	clear(sc.wideGrad.data)
	return g
}

// phaseSpan returns the rows [r0, r1) of phase ph along an axis of n image
// pixels and o outputs that hold image pixels some tap reads.
func (c *Conv2D) phaseSpan(ph, n, o int) (r0, r1 int) {
	s := c.stride
	if c.pad > ph {
		r0 = (c.pad - ph + s - 1) / s
	}
	if last := min(n-1+c.pad, s*(o-1)+c.kernel-1); last >= ph {
		r1 = (last-ph)/s + 1
	}
	return r0, max(r0, r1)
}

// movePhases copies the pixels some tap reads between the (inC, h, w) image
// img and the bordered image bordered: into it, or with toImage out of it.
// Nothing else of either is written.
func (c *Conv2D) movePhases(g *convGeom, bordered, img []float32, toImage bool) {
	s, h, w := c.stride, g.h, g.w
	for py := 0; py < g.phases; py++ {
		r0, r1 := c.phaseSpan(py, h, g.outH)
		for px := 0; px < g.phases; px++ {
			c0, c1 := c.phaseSpan(px, w, g.outW)
			if c0 == c1 {
				continue
			}
			for ic := 0; ic < c.inC; ic++ {
				phase := bordered[((ic*g.phases+py)*g.phases+px)*g.plane:][:g.plane]
				for r := r0; r < r1; r++ {
					b := phase[r*g.wp+c0 : r*g.wp+c1]
					im := img[(ic*h+s*r+py-c.pad)*w+s*c0+px-c.pad:]
					switch {
					case s == 1 && toImage:
						copy(im, b)
					case s == 1:
						copy(b, im)
					case toImage:
						for j, v := range b {
							im[j*s] = v
						}
					default:
						for j := range b {
							b[j] = im[j*s]
						}
					}
				}
			}
		}
	}
}

// borderedRows returns where the image pixels lie in a bordered image of
// layout g, for a stride-1 layer: one phase, each pixel at the same place in
// its plane shifted by the border.
func (c *Conv2D) borderedRows(g *convGeom, pad []float32) imageRows {
	if g.phases != 1 {
		panic(fmt.Sprintf("nn: %s has %d phases; its image rows are not a plane's", c.Name(), g.phases))
	}
	return imageRows{data: pad, plane: g.plane, row: g.wp, off: c.pad*g.wp + c.pad}
}

// forward is Forward's product, over batch images fill writes into the
// bordered images: those of a training pass are kept, one per batch item,
// for Backward; an evaluation pass reuses one.
func (c *Conv2D) forward(sc *convScratch, batch int, out *tensor.Tensor, train bool, fill func(g *convGeom, b int, pad []float32)) {
	g := &sc.geom
	n, step := 1, 0
	if train {
		n, step = batch, g.size
	}
	padData := sc.pad.get(n, c.inC, g.phases*g.phases, g.rows, g.wp).Data()
	wide := sc.wide.get(c.outC, g.cols).Data()
	outData, weight := out.Data(), c.weight.Data()
	outImgSize := c.outC * g.outH * g.outW
	for b := 0; b < batch; b++ {
		pad := padData[b*step:][:g.size]
		fill(g, b, pad)
		tensor.MatMulOffset(wide, g.cols, weight, c.outC, len(g.off), 1, pad, g.off, g.cols, false)
		// Compact the plane, the bias added on the way.
		dst := outData[b*outImgSize:][:outImgSize]
		for oc, bval := range c.bias.Data() {
			row := wide[oc*g.cols:][:g.outH*g.wp]
			tensor.AddScalarSlice(row, bval)
			copyRows(dst[oc*g.outH*g.outW:], g.outW, row, g.wp, g.outH, g.outW)
		}
	}
}

// weightGrad computes dW = Σ grad · colᵀ over the batch, col read out of the
// training pass's bordered images as runs of outW, wp apart — one run where
// they meet end to end: the first image overwrites, the rest accumulate.
func (c *Conv2D) weightGrad(grad *tensor.Tensor) {
	g := &c.train.geom
	plane := g.outH * g.outW
	run, runs, stride := g.outW, g.outH, g.wp
	if g.wp == g.outW {
		run, runs, stride = plane, 1, plane
	}
	gradData, padData := grad.Data(), c.train.pad.data
	for b := 0; b < c.inBatch; b++ {
		gradMat := view2D(&c.gradMat, gradData[b*c.outC*plane:][:c.outC*plane], c.outC, plane)
		tensor.MatMulTransBOffset(c.gradW, gradMat, padData[b*g.size:][:g.size], g.off, run, runs, stride, b > 0)
	}
}

// inputGradient computes dx, tap by tap onto a bordered dx.
func (c *Conv2D) inputGradient(grad, dx *tensor.Tensor) {
	g := &c.train.geom
	kk := c.kernel * c.kernel
	weight := c.weight.Data()
	sum := float64(tensor.SumSlice(weight))
	finite := !math.IsNaN(sum) && !math.IsInf(sum, 0)
	wideGrad := c.train.wideGrad.get(c.outC, g.cols).Data()
	padDx := c.train.padDx.get(c.inC, g.phases*g.phases, g.rows, g.wp).Data()
	if g.partial {
		dx.Zero() // the pixels no tap reads
	}
	gradData, dxData := grad.Data(), dx.Data()
	imgSize, outImgSize := c.inC*g.h*g.w, c.outC*g.outH*g.outW
	ldc := g.size / c.inC
	for b := 0; b < c.inBatch; b++ {
		gm := gradData[b*outImgSize:][:outImgSize]
		for oc := 0; oc < c.outC; oc++ {
			copyRows(wideGrad[oc*g.cols:], g.wp, gm[oc*g.outH*g.outW:], g.outW, g.outH, g.outW)
		}
		// Tap t = (ky, kx): dx rows ic, shifted by the tap, += Σ over oc of
		// W[oc][ic·k·k+t] · grad[oc].
		clear(padDx)
		for t, shift := range g.off[:kk] {
			if finite {
				tensor.MatMulOffset(padDx[shift:], ldc, weight[t:], c.inC, kk, c.inC*kk, wideGrad, g.gradRows, g.cols, true)
				continue
			}
			// A non-finite weight times a dropped column's zero is NaN, and
			// a dropped column lands on a pixel the tap does not read.
			for y := 0; y < g.outH; y++ {
				tensor.MatMulOffset(padDx[shift+y*g.wp:], ldc, weight[t:], c.inC, kk, c.inC*kk, wideGrad[y*g.wp:], g.gradRows, g.outW, true)
			}
		}
		c.movePhases(g, padDx, dxData[b*imgSize:][:imgSize], true)
	}
}

// copyRows copies rows runs of width floats, srcStride apart in src, to
// dst, dstStride apart: in one copy where both lie end to end.
func copyRows(dst []float32, dstStride int, src []float32, srcStride, rows, width int) {
	if dstStride == width && srcStride == width {
		copy(dst[:rows*width], src)
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst[r*dstStride:][:width], src[r*srcStride:])
	}
}
