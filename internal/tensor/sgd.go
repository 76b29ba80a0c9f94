package tensor

// The fused SGD step of internal/optimizer, one parameter tensor at a time:
// the batch's gradient sum, weight decay, the momentum update and the
// parameter write in one pass, so each gradient value is read exactly once.
// It sits behind the same seam as the slice kernels (kernels.go): sgdStep and
// sgdMomentumStep are bound to the Go loops below and rebound at package init
// to AVX2 assembly where the CPU probe passes.
//
// Numerics. Every multiply, add and subtract is rounded on its own, in one
// order on both bindings: g = Σgs + wd·src with the batch summed in source
// order (((g0+g1)+g2)+…), v' = mu·v + g, dst = src − lr·g (or lr·v'). There is
// no wd == 0 shortcut: 0·Inf is NaN on both. The bindings are bit-identical to
// each other and to cloning src, summing the batch with sequential adds and
// running the scalar optimizer step on the clone — the contract that lets the
// parameter store coalesce pushes without changing training dynamics.

// SGDStep stores dst[i] = src[i] − lr·(Σ_b gs[b][i] + wd·src[i]). dst may be
// src itself (an in-place update) or disjoint from it; gs must be non-empty,
// and src and every gs[b] at least as long as dst.
func SGDStep(dst, src []float32, gs [][]float32, lr, wd float32) {
	sgdCheck(dst, gs)
	sgdStep(dst, src[:len(dst)], gs, lr, wd)
}

// SGDMomentumStep is SGDStep with momentum: v[i] = mu·v[i] + (Σ_b gs[b][i] +
// wd·src[i]), then dst[i] = src[i] − lr·v[i]. v must be at least as long as
// dst and alias neither dst nor src.
func SGDMomentumStep(dst, src, v []float32, gs [][]float32, lr, mu, wd float32) {
	sgdCheck(dst, gs)
	sgdMomentumStep(dst, src[:len(dst)], v[:len(dst)], gs, lr, mu, wd)
}

// sgdCheck makes the bounds checks the kernels do not.
func sgdCheck(dst []float32, gs [][]float32) {
	if len(gs) == 0 {
		panic("tensor: SGD step needs a non-empty batch")
	}
	for _, g := range gs {
		_ = g[:len(dst)]
	}
}

// sgdMomentumStepGo is SGDMomentumStep's loop. Specialized small-batch
// bodies keep the common coalescing sizes branch-free in the inner loop.
func sgdMomentumStepGo(dd, sd, v []float32, gs [][]float32, lr, mu, wd float32) {
	sd = sd[:len(dd)]
	v = v[:len(dd)]
	switch len(gs) {
	case 1:
		g0 := gs[0][:len(dd)]
		for j := range dd {
			g := g0[j] + wd*sd[j]
			vj := mu*v[j] + g
			v[j] = vj
			dd[j] = sd[j] - lr*vj
		}
	case 2:
		g0 := gs[0][:len(dd)]
		g1 := gs[1][:len(dd)]
		for j := range dd {
			g := (g0[j] + g1[j]) + wd*sd[j]
			vj := mu*v[j] + g
			v[j] = vj
			dd[j] = sd[j] - lr*vj
		}
	case 3:
		g0 := gs[0][:len(dd)]
		g1 := gs[1][:len(dd)]
		g2 := gs[2][:len(dd)]
		for j := range dd {
			g := ((g0[j] + g1[j]) + g2[j]) + wd*sd[j]
			vj := mu*v[j] + g
			v[j] = vj
			dd[j] = sd[j] - lr*vj
		}
	case 4:
		g0 := gs[0][:len(dd)]
		g1 := gs[1][:len(dd)]
		g2 := gs[2][:len(dd)]
		g3 := gs[3][:len(dd)]
		for j := range dd {
			g := (((g0[j] + g1[j]) + g2[j]) + g3[j]) + wd*sd[j]
			vj := mu*v[j] + g
			v[j] = vj
			dd[j] = sd[j] - lr*vj
		}
	default:
		var buf sgdStrip
		for start := 0; start < len(dd); start += len(buf) {
			end := min(start+len(buf), len(dd))
			sum := stripSum(&buf, gs, start, end)
			db := dd[start:end:end]
			sb := sd[start:end:end]
			vb := v[start:end:end]
			for j, gj := range sum {
				g := gj + wd*sb[j]
				vj := mu*vb[j] + g
				vb[j] = vj
				db[j] = sb[j] - lr*vj
			}
		}
	}
}

// sgdStrip is the stack-resident strip buffer the Go loops sum wide batches
// in, a cache-line-friendly chunk at a time; element order within the strip
// sum still matches a sequential copy+Add pass exactly.
type sgdStrip [512]float32

// stripSum returns buf[:end-start] holding the in-order element-wise sum of
// gs over [start, end). It runs under the Go binding only, where the bound
// addSlice is addSliceGo; calling that by name keeps buf on the caller's
// stack, which a call through the function value would not.
func stripSum(buf *sgdStrip, gs [][]float32, start, end int) []float32 {
	w := end - start
	sum := buf[:w:w]
	copy(sum, gs[0][start:end])
	for _, gb := range gs[1:] {
		addSliceGo(sum, gb[start:end:end])
	}
	return sum
}

// sgdStepGo is SGDStep's loop, the momentum-free variant.
func sgdStepGo(dd, sd []float32, gs [][]float32, lr, wd float32) {
	sd = sd[:len(dd)]
	switch len(gs) {
	case 1:
		g0 := gs[0][:len(dd)]
		for j := range dd {
			g := g0[j] + wd*sd[j]
			dd[j] = sd[j] - lr*g
		}
	case 2:
		g0 := gs[0][:len(dd)]
		g1 := gs[1][:len(dd)]
		for j := range dd {
			g := (g0[j] + g1[j]) + wd*sd[j]
			dd[j] = sd[j] - lr*g
		}
	case 3:
		g0 := gs[0][:len(dd)]
		g1 := gs[1][:len(dd)]
		g2 := gs[2][:len(dd)]
		for j := range dd {
			g := ((g0[j] + g1[j]) + g2[j]) + wd*sd[j]
			dd[j] = sd[j] - lr*g
		}
	case 4:
		g0 := gs[0][:len(dd)]
		g1 := gs[1][:len(dd)]
		g2 := gs[2][:len(dd)]
		g3 := gs[3][:len(dd)]
		for j := range dd {
			g := (((g0[j] + g1[j]) + g2[j]) + g3[j]) + wd*sd[j]
			dd[j] = sd[j] - lr*g
		}
	default:
		var buf sgdStrip
		for start := 0; start < len(dd); start += len(buf) {
			end := min(start+len(buf), len(dd))
			sum := stripSum(&buf, gs, start, end)
			db := dd[start:end:end]
			sb := sd[start:end:end]
			for j, gj := range sum {
				g := gj + wd*sb[j]
				db[j] = sb[j] - lr*g
			}
		}
	}
}
