package tensor

import "fmt"

// Offset-table products: matrix products whose right operand is not a dense
// matrix but rows read in place out of a larger buffer, row r starting at
// b[off[r]]. A stride-1 3×3 convolution reads its patch matrix this way
// straight out of the zero-bordered image (internal/nn's Conv2D): patch row
// (ic, ky, kx) is the bordered image shifted by ic planes, ky rows and kx
// columns, so a table of 9·inC offsets stands in for the (inC·9, H·W) matrix
// im2col would build.
//
// Each form builds every output by the chain of the dense product it stands
// in for — the same operations on the same operands in the same order — so
// where the rows it reads hold what the dense operand would, it is bit for bit
// that product: MatMulOffset is MatMulInto's (or, through its a strides,
// MatMulTransAInto's) chain, and MatMulTransBOffset is MatMulTransBInto's on
// the Go loops, and on the panels wherever its runs are whole vectors of
// eight (see dotOffPanel).
//
// gemmOffPanel is gemmPanel with b's row kk at b[off[kk]] instead of
// b[kk*ldb], and with add set the chain, summed from +0, added onto c at the
// store (c + Σ, what adding a separately computed product leaves) where
// gemmPanel's acc folds c into the chain. dotOffPanel is dotPanel with b's
// row j the h runs of w floats b[off[j]+s*ldb:], s < h, and a's row the h·w
// floats that meet them end to end. Both exist in assembly only and stay nil
// elsewhere; the row loops below then do the whole product.
var (
	gemmOffPanel func(c *float32, ldc int, a *float32, ars, aks int, b *float32, off *int, k, tiles int, add bool)
	dotOffPanel  func(c *float32, ldc int, a *float32, lda, rows int, b *float32, off *int, cols, w, h, ldb int, acc bool)
)

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
	if mmSerial(m, k, n) {
		gemmOffRowRange(dst, ldc, a, ars, aks, b, off, n, 0, m, add)
		return
	}
	mmParallel(m, k, n, func(i0, i1 int) {
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
	m := a.shape[0]
	mmCheckDst("MatMulTransBOffset", dst, m, n)
	if mmSerial(m, w*h, n) {
		dotOffRowRange(dst.data, a.data, b, off, w, h, ldb, 0, m, acc)
		return
	}
	mmParallel(m, w*h, n, func(i0, i1 int) {
		dotOffRowRange(dst.data, a.data, b, off, w, h, ldb, i0, i1, acc)
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

// gemmOffRowRange computes output rows [i0,i1) of MatMulOffset: whole tiles
// through the panel where it is bound, as mmRowRange does, and the row loops
// for what is left.
func gemmOffRowRange(c []float32, ldc int, a []float32, ars, aks int, b []float32, off []int, n, i0, i1 int, add bool) {
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

// mmOffRows is mmRows with b's row kk at b[off[kk]] and output row i at
// c[i*ldc], over columns [j0,n): each column block is cleared and summed by
// the bound fma4Rows and axpySlice, and with add set the block's previous
// contents are added back onto the sum, each element once.
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

// mmTransBOffRows is mmTransBRows with b's row j read as runs: each output is
// one chain over the runs in order, four outputs per pass, so it is the dense
// form's scalar-order sum bit for bit.
func mmTransBOffRows(c, a, b []float32, off []int, w, h, ldb, i0, i1 int, acc bool) {
	n, lda := len(off), w*h
	for i := i0; i < i1; i++ {
		orow := c[i*n : i*n+n]
		for j := 0; j < n; j += 4 {
			cols := min(4, n-j)
			var s [4]float32
			for y := 0; y < h; y++ {
				arow := a[i*lda+y*w : i*lda+y*w+w]
				for q := 0; q < cols; q++ {
					brow := b[off[j+q]+y*ldb:][:len(arow)]
					sum := s[q]
					for x, av := range arow {
						sum += av * brow[x]
					}
					s[q] = sum
				}
			}
			for q := 0; q < cols; q++ {
				if acc {
					orow[j+q] += s[q]
				} else {
					orow[j+q] = s[q]
				}
			}
		}
	}
}
