package tensor

import "fmt"

// Offset-table products: matrix products whose right operand's rows are read
// in place out of a larger buffer, row r starting at b[off[r]]. Every product
// of the package runs here. A dense operand is the table of its rows at a
// stride (matmul.go's denseRows); a convolution reads its patch matrix
// straight out of the zero-bordered image split into stride phases
// (internal/nn's Conv2D): patch row (ic, ky, kx) is that image shifted to the
// tap's phase, row and column, so a table of k·k·inC offsets stands in for
// the (inC·k·k, outH·outW) matrix im2col would build, at every stride.
//
// Each form builds every output by one chain whatever the table, so a product
// of rows read in place is bit for bit the product of the same rows gathered
// into a dense matrix: always for MatMulOffset, and for MatMulTransBOffset on
// the Go loops, and on the panels wherever its runs are whole vectors of
// eight (see dotOffPanel).
//
// gemmOffPanel computes c[r*ldc+j] for four rows r and 16·tiles columns j,
// b's row kk at b[off[kk]]: the chain summed from +0 and, with add set, added
// onto c at the store (c + Σ, what adding a separately computed product
// leaves). gemmOffSmallK computes the same chain for rows rows and up to
// mmSmallKCols columns j, k at most mmSmallK; with half set, c is an fp16
// error-feedback residual the chain is folded into, and the halfs go to
// half[2(r*ldc+j):] (MatMulTransAF16Feedback). dotOffPanel computes up to four
// columns of rows rows of a transposed-B product, b's row j the h runs of w
// floats b[off[j]+s*ldb:], s < h, and a's row the h·w floats that meet them
// end to end; with acc the sums are added onto c. gemm_amd64.s has the
// chains.

// MatMulOffset computes the (m,n) product A×B into the rows dst[i*ldc:][:n],
// i < m. A's element (i,kk) is a[i*ars+kk*aks] and B's row kk is
// b[off[kk]:][:n], for kk < len(off). With add unset the rows are
// overwritten; with add set the product is added onto them, each output
// dst + (A×B)ᵢⱼ rounded once, as adding a product computed on its own would.
// dst must not overlap a or b.
func MatMulOffset(dst []float32, ldc int, a []float32, m, ars, aks int, b []float32, off []int, n int, add bool) {
	k := len(off)
	if m <= 0 || n <= 0 || k == 0 || ldc < n ||
		len(dst) < (m-1)*ldc+n || len(a) <= (m-1)*ars+(k-1)*aks || !offsetsFit(b, off, n) {
		panic(fmt.Sprintf("tensor: MatMulOffset operands out of range: m=%d k=%d n=%d ldc=%d ars=%d aks=%d len(dst)=%d len(a)=%d len(b)=%d",
			m, k, n, ldc, ars, aks, len(dst), len(a), len(b)))
	}
	mmOffset(dst, ldc, a, m, ars, aks, b, off, n, add)
}

// mmOffset runs MatMulOffset on operands the caller has checked: on the
// calling goroutine when the product is too small to amortize a fan-out,
// otherwise split by output-row blocks across the shared worker pool. The
// closure the pool needs is built on the parallel branch only, so a serial
// product allocates nothing.
func mmOffset(dst []float32, ldc int, a []float32, m, ars, aks int, b []float32, off []int, n int, add bool) {
	if mmSerial(m, len(off), n) {
		gemmOffRowRange(dst, ldc, a, ars, aks, b, off, n, 0, m, add)
		return
	}
	mmParallel(m, len(off), n, func(i0, i1 int) {
		gemmOffRowRange(dst, ldc, a, ars, aks, b, off, n, i0, i1, add)
	})
}

// MatMulTransBOffset computes dst = A×Bᵀ (acc unset) or dst += A×Bᵀ (acc
// set) for A of shape (m, h·w) and dst of shape (m, len(off)), B's row j the
// h runs of w floats b[off[j]+s*ldb:][:w], s < h, laid end to end: a
// transposed-B product whose right operand is read in place. dst must not
// overlap a or b.
func MatMulTransBOffset(dst, a *Tensor, b []float32, off []int, w, h, ldb int, acc bool) {
	n := len(off)
	if a.Dims() != 2 || w <= 0 || h <= 0 || ldb < w || a.shape[1] != w*h || n == 0 || !offsetsFit(b, off, (h-1)*ldb+w) {
		panic(fmt.Sprintf("tensor: MatMulTransBOffset operands out of range: a %v, %d rows of %d runs of %d at stride %d, len(b)=%d",
			a.shape, n, h, w, ldb, len(b)))
	}
	mmCheckDst("MatMulTransBOffset", dst, a.shape[0], n)
	mmTransBOffset(dst.data, a.data, a.shape[0], b, off, w, h, ldb, acc)
}

// mmTransBOffset runs MatMulTransBOffset's m output rows on operands the
// caller has checked, serial or fanned out as mmOffset decides.
func mmTransBOffset(dst, a []float32, m int, b []float32, off []int, w, h, ldb int, acc bool) {
	if mmSerial(m, w*h, len(off)) {
		dotOffRowRange(dst, a, b, off, w, h, ldb, 0, m, acc)
		return
	}
	mmParallel(m, w*h, len(off), func(i0, i1 int) {
		dotOffRowRange(dst, a, b, off, w, h, ldb, i0, i1, acc)
	})
}

// offsetsFit reports whether every row b[off[r]:][:span] lies inside b: the
// panels trust it.
func offsetsFit(b []float32, off []int, span int) bool {
	for _, o := range off {
		if o < 0 || o > len(b)-span {
			return false
		}
	}
	return true
}

// gemmOffRowRange computes output rows [i0,i1) of MatMulOffset. Where the
// small-k pass is bound and k is at most mmSmallK, it takes the whole range,
// mmSmallKCols columns a call. Otherwise, where the panel is bound, whole tiles
// go through it — four rows by every whole sixteen columns, plain and
// transposed-A products differing only in a's two strides — and the row loops
// take what is left.
func gemmOffRowRange(c []float32, ldc int, a []float32, ars, aks int, b []float32, off []int, n, i0, i1 int, add bool) {
	if k := len(off); gemmOffSmallK != nil && k > 0 && k <= mmSmallK && i0 < i1 {
		for jb := 0; jb < n; jb += mmSmallKCols {
			gemmOffSmallK(&c[i0*ldc+jb], ldc, &a[i0*ars], ars, aks, &b[jb], &off[0], k, i1-i0, min(mmSmallKCols, n-jb), add, nil)
		}
		return
	}
	if tiles := n / mmTileJ; gemmOffPanel != nil && tiles > 0 {
		it := i0
		for ; it+mmTileI <= i1; it += mmTileI {
			gemmOffPanel(&c[it*ldc], ldc, &a[it*ars], ars, aks, &b[0], &off[0], len(off), tiles, add)
		}
		mmOffRows(a, ars, aks, b, off, c, ldc, n, i0, it, tiles*mmTileJ, add)
		i0 = it
	}
	mmOffRows(a, ars, aks, b, off, c, ldc, n, i0, i1, 0, add)
}

// mmOffRows computes columns [j0,n) of output rows [i0,i1), b's row kk at
// b[off[kk]] and output row i at c[i*ldc]: each column block is cleared and
// summed by the bound fma4Rows and axpySlice, and with add set the block's
// previous contents are added back onto the sum, each element once. Four
// b-rows are streamed per pass over a column block, so the block of c stays
// in L1 while each element of b is read once per output row. The Go form of
// the 4-row step runs at the scalar floating-point ceiling (two FP ops per
// multiply-add with all bounds checks eliminated); wider row/column tiles
// were measured slower there because their extra live coefficients spill.
func mmOffRows(a []float32, ars, aks int, b []float32, off []int, c []float32, ldc, n, i0, i1, j0 int, add bool) {
	k := len(off)
	var prev [mmBlockJ]float32
	for i := i0; i < i1; i++ {
		orow := c[i*ldc : i*ldc+n]
		for jb := j0; jb < n; jb += mmBlockJ {
			je := min(jb+mmBlockJ, n)
			ob := orow[jb:je:je]
			w := je - jb
			if add {
				copy(prev[:w], ob)
			}
			clear(ob)
			p := i * ars
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				fma4Rows(ob,
					b[off[kk]+jb:][:w], b[off[kk+1]+jb:][:w], b[off[kk+2]+jb:][:w], b[off[kk+3]+jb:][:w],
					a[p], a[p+aks], a[p+2*aks], a[p+3*aks])
				p += 4 * aks
			}
			for ; kk < k; kk++ {
				axpySlice(a[p], b[off[kk]+jb:][:w], ob)
				p += aks
			}
			if add {
				for j, v := range prev[:w] {
					ob[j] = v + ob[j]
				}
			}
		}
	}
}

// dotOffRowRange computes output rows [i0,i1) of MatMulTransBOffset: four
// columns per panel call where the panel is bound, the row loops otherwise.
func dotOffRowRange(c, a, b []float32, off []int, w, h, ldb, i0, i1 int, acc bool) {
	n, lda := len(off), w*h
	if dotOffPanel == nil {
		mmTransBOffRows(c, a, b, off, w, h, ldb, i0, i1, acc)
		return
	}
	for j := 0; j < n; j += 4 {
		dotOffPanel(&c[i0*n+j], n, &a[i0*lda], lda, i1-i0, &b[0], &off[j], min(4, n-j), w, h, ldb, acc)
	}
}

// mmTransBOffRows computes output rows [i0,i1) of a transposed-B product with
// b's row j read as runs: each output is one chain over the runs in order,
// the scalar loop's accumulation order over the runs laid end to end. Four
// outputs are summed per pass over a run of a (mmDot4), so the run is read
// once per four outputs and the four chains overlap.
func mmTransBOffRows(c, a, b []float32, off []int, w, h, ldb, i0, i1 int, acc bool) {
	n, lda := len(off), w*h
	for i := i0; i < i1; i++ {
		arow := a[i*lda : i*lda+lda]
		orow := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float32
			for y := 0; y < h; y++ {
				r := y * ldb
				s0, s1, s2, s3 = mmDot4(arow[y*w:y*w+w], b[off[j]+r:], b[off[j+1]+r:], b[off[j+2]+r:], b[off[j+3]+r:],
					s0, s1, s2, s3)
			}
			if acc {
				orow[j] += s0
				orow[j+1] += s1
				orow[j+2] += s2
				orow[j+3] += s3
			} else {
				orow[j] = s0
				orow[j+1] = s1
				orow[j+2] = s2
				orow[j+3] = s3
			}
		}
		for ; j < n; j++ {
			var sum float32
			for y := 0; y < h; y++ {
				run := arow[y*w : y*w+w]
				brow := b[off[j]+y*ldb:][:len(run)]
				for x, av := range run {
					sum += av * brow[x]
				}
			}
			if acc {
				orow[j] += sum
			} else {
				orow[j] = sum
			}
		}
	}
}

// mmDot4 continues the four chains s0..s3 over the dot products of arow
// against b0..b3. The reslices pin every operand to len(arow) so the compiler
// drops all bounds checks; the four chains are independent and overlap in the
// pipeline, each in the scalar loop's accumulation order.
func mmDot4(arow, b0, b1, b2, b3 []float32, s0, s1, s2, s3 float32) (float32, float32, float32, float32) {
	b0 = b0[:len(arow)]
	b1 = b1[:len(arow)]
	b2 = b2[:len(arow)]
	b3 = b3[:len(arow)]
	for x, av := range arow {
		s0 += av * b0[x]
		s1 += av * b1[x]
		s2 += av * b2[x]
		s3 += av * b3[x]
	}
	return s0, s1, s2, s3
}
