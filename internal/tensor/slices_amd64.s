//go:build !purego

#include "textflag.h"

// AVX2 forms of the slice kernels (kernels.go). Except addRowsAVX2, each
// takes whole windows of eight floats — the Go bindings in kernels_amd64.go
// cut the slices and run the Go loop on the up to seven values after — and
// trusts every operand to be as long as the first, so no load or store
// touches memory past a slice. The elementwise kernels do per element exactly
// what the Go loops do on amd64, every multiply and add rounded on its own;
// the sums add the same terms in another order.

// func addSliceAVX2(dst, src []float32)
TEXT ·addSliceAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $3, CX
	JZ   add_done

add_loop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     add_loop

add_done:
	VZEROUPPER
	RET

// func sumPairAVX2(dst, a, b []float32)
//
// dst[i] = a[i] + b[i]: addSliceAVX2 on a copy of a, with the copy's store
// and reload gone.
TEXT ·sumPairAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	SHRQ $3, CX
	JZ   pair_done

pair_loop:
	VMOVUPS (SI), Y0
	VADDPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     pair_loop

pair_done:
	VZEROUPPER
	RET

// func axpySliceAVX2(alpha float32, src, dst []float32)
TEXT ·axpySliceAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y2
	MOVQ src_base+8(FP), SI
	MOVQ dst_base+32(FP), DI
	MOVQ dst_len+40(FP), CX
	SHRQ $3, CX
	JZ   axpy_done

axpy_loop:
	VMULPS  (SI), Y2, Y1
	VMOVUPS (DI), Y0
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     axpy_loop

axpy_done:
	VZEROUPPER
	RET

// func scaleSliceAVX2(s float32, dst []float32)
TEXT ·scaleSliceAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS s+0(FP), Y2
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	SHRQ $3, CX
	JZ   scale_done

scale_loop:
	VMOVUPS (DI), Y0
	VMULPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     scale_loop

scale_done:
	VZEROUPPER
	RET

// func addScalarSliceAVX2(s float32, dst []float32)
TEXT ·addScalarSliceAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS s+0(FP), Y2
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	SHRQ $3, CX
	JZ   adds_done

adds_loop:
	VMOVUPS (DI), Y0
	VADDPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     adds_loop

adds_done:
	VZEROUPPER
	RET

// func maskNonNegAVX2(dst, val, sign []float32)
//
// dst[i] = val[i] where !(sign[i] < 0), +0 elsewhere: the compare is
// not-less-than, true for NaN and for both zeros.
TEXT ·maskNonNegAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ val_base+24(FP), SI
	MOVQ sign_base+48(FP), DX
	VXORPS Y2, Y2, Y2
	SHRQ $3, CX
	JZ   mask_done

mask_loop:
	VMOVUPS (DX), Y0
	VCMPPS  $0x15, Y2, Y0, Y0    // NLT_UQ: !(sign < 0)
	VANDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     mask_loop

mask_done:
	VZEROUPPER
	RET

// func addRowsAVX2(dst []float32, dstStride int, src []float32, srcStride, rows, width int)
//
// dst[r*dstStride+i] += src[r*srcStride+i] for r in [0,rows), i in [0,width):
// whole vectors, then the width%8 lanes left through masked moves.
TEXT ·addRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dstStride+24(FP), R8
	SHLQ $2, R8
	MOVQ src_base+32(FP), SI
	MOVQ srcStride+56(FP), R9
	SHLQ $2, R9
	MOVQ rows+64(FP), DX
	MOVQ width+72(FP), R10
	MOVQ R10, BX
	ANDQ $7, BX
	SHLQ $2, BX
	LEAQ ·tailMask+32(SB), AX
	SUBQ BX, AX
	VMOVDQU (AX), Y2             // the first width%8 lanes
	ANDQ $-8, R10
	SHLQ $2, R10                 // bytes of a row covered by whole vectors

rows_row:
	XORQ AX, AX
	CMPQ AX, R10
	JGE  rows_tail

rows_loop:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  (SI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R10
	JLT     rows_loop

rows_tail:
	TESTQ BX, BX
	JZ    rows_next
	VMASKMOVPS (DI)(AX*1), Y2, Y0
	VMASKMOVPS (SI)(AX*1), Y2, Y1
	VADDPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y2, (DI)(AX*1)

rows_next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ DX
	JNZ  rows_row
	VZEROUPPER
	RET

// func sumSliceAVX2(x []float32) float32
TEXT ·sumSliceAVX2(SB), NOSPLIT, $0-28
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	SHRQ $3, CX
	JZ   sum_reduce

sum_loop:
	VADDPS (SI), Y0, Y0
	ADDQ   $32, SI
	DECQ   CX
	JNZ    sum_loop

sum_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, ret+24(FP)
	VZEROUPPER
	RET

// Fold the four float64 lanes of y (x its low half) into the low lane of x.
#define REDUCEPD(y, x, xt) \
	VEXTRACTF128 $1, y, xt \
	VADDPD       xt, x, x  \
	VHADDPD      x, x, x

// func sumF64AVX2(x []float32) float64
//
// The sum of x in float64, four lanes to each of two accumulators.
TEXT ·sumF64AVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SHRQ $3, CX
	JZ   sum64_reduce

sum64_loop:
	VCVTPS2PD (SI), Y2
	VCVTPS2PD 16(SI), Y3
	VADDPD    Y2, Y0, Y0
	VADDPD    Y3, Y1, Y1
	ADDQ      $32, SI
	DECQ      CX
	JNZ       sum64_loop

sum64_reduce:
	VADDPD Y1, Y0, Y0
	REDUCEPD(Y0, X0, X1)
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func sumSqDevF64AVX2(x []float32, mean float64) float64
//
// The sum of (x[i]-mean)² in float64.
TEXT ·sumSqDevF64AVX2(SB), NOSPLIT, $0-40
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VBROADCASTSD mean+24(FP), Y4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SHRQ $3, CX
	JZ   dev_reduce

dev_loop:
	VCVTPS2PD   (SI), Y2
	VCVTPS2PD   16(SI), Y3
	VSUBPD      Y4, Y2, Y2
	VSUBPD      Y4, Y3, Y3
	VFMADD231PD Y2, Y2, Y0
	VFMADD231PD Y3, Y3, Y1
	ADDQ        $32, SI
	DECQ        CX
	JNZ         dev_loop

dev_reduce:
	VADDPD Y1, Y0, Y0
	REDUCEPD(Y0, X0, X1)
	VMOVSD X0, ret+32(FP)
	VZEROUPPER
	RET

// func sumDotAVX2(a, b []float32) (sumA, sumAB float64)
//
// The sums of a[i] and of a[i]*b[i] in float64, in one pass. A product
// of two float32 values is exact in float64, so fusing its add changes
// nothing.
TEXT ·sumDotAVX2(SB), NOSPLIT, $0-64
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SHRQ $3, CX
	JZ   dot64_reduce

dot64_loop:
	VCVTPS2PD   (SI), Y4
	VCVTPS2PD   16(SI), Y5
	VCVTPS2PD   (DX), Y6
	VCVTPS2PD   16(DX), Y7
	VADDPD      Y4, Y0, Y0
	VADDPD      Y5, Y1, Y1
	VFMADD231PD Y6, Y4, Y2
	VFMADD231PD Y7, Y5, Y3
	ADDQ        $32, SI
	ADDQ        $32, DX
	DECQ        CX
	JNZ         dot64_loop

dot64_reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	REDUCEPD(Y0, X0, X1)
	REDUCEPD(Y2, X2, X3)
	VMOVSD X0, sumA+48(FP)
	VMOVSD X2, sumAB+56(FP)
	VZEROUPPER
	RET

// func normalizePlaneAVX2(out, xhat, x []float32, mean, invStd, gamma, beta float64)
//
// xh = (x[i]-mean)*invStd in float64; xhat[i] = float32(xh); out[i] =
// float32(gamma*xh+beta), the product rounded before the add. out is stored
// last, so xhat may be out itself.
TEXT ·normalizePlaneAVX2(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ xhat_base+24(FP), DX
	MOVQ x_base+48(FP), SI
	VBROADCASTSD mean+72(FP), Y4
	VBROADCASTSD invStd+80(FP), Y5
	VBROADCASTSD gamma+88(FP), Y6
	VBROADCASTSD beta+96(FP), Y7
	SHRQ $2, CX                  // four floats a pass: one vector of float64
	JZ   norm_done

norm_loop:
	VCVTPS2PD  (SI), Y0
	VSUBPD     Y4, Y0, Y0
	VMULPD     Y5, Y0, Y0
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (DX)
	VMULPD     Y0, Y6, Y0
	VADDPD     Y7, Y0, Y0
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DX
	ADDQ       $16, DI
	DECQ       CX
	JNZ        norm_loop

norm_done:
	VZEROUPPER
	RET

// func planeGradAVX2(dx, dy, xhat []float32, c, n, sumDy, sumDyXHat float64)
//
// dx[i] = float32(c * (n*dy[i] - sumDy - xhat[i]*sumDyXHat)) in float64,
// every operation rounded on its own.
TEXT ·planeGradAVX2(SB), NOSPLIT, $0-104
	MOVQ dx_base+0(FP), DI
	MOVQ dx_len+8(FP), CX
	MOVQ dy_base+24(FP), SI
	MOVQ xhat_base+48(FP), DX
	VBROADCASTSD c+72(FP), Y4
	VBROADCASTSD n+80(FP), Y5
	VBROADCASTSD sumDy+88(FP), Y6
	VBROADCASTSD sumDyXHat+96(FP), Y7
	SHRQ $2, CX
	JZ   grad_done

grad_loop:
	VCVTPS2PD  (SI), Y0
	VCVTPS2PD  (DX), Y1
	VMULPD     Y0, Y5, Y0        // n*dy
	VSUBPD     Y6, Y0, Y0        //   - sumDy
	VMULPD     Y7, Y1, Y1        // xhat*sumDyXHat
	VSUBPD     Y1, Y0, Y0
	VMULPD     Y0, Y4, Y0
	VCVTPD2PSY Y0, X1
	VMOVUPS    X1, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DX
	ADDQ       $16, DI
	DECQ       CX
	JNZ        grad_loop

grad_done:
	VZEROUPPER
	RET

// The SGD step (sgd.go), in two forms whose arithmetic is one and the same:
// sgdStepAVX2 and sgdMomentumStepAVX2 for a batch of float32 sources, the
// dense push's, and their Half twins for a batch holding a half-precision one
// (the Go binding picks). The gs array runs from R8 to R9, 48 bytes a Grad:
// F32's slice header, then Half's.
//
// GRADSUM leaves in Y0 the batch's float32 gradient sum at byte offset AX,
// added in source order. R11 and R12 are scratch.
#define GRADSUM(next, done) \
	MOVQ    (R8), R12          \
	VMOVUPS (R12)(AX*1), Y0    \
	LEAQ    48(R8), R11        \
next:                          \
	CMPQ    R11, R9            \
	JGE     done               \
	MOVQ    (R11), R12         \
	VADDPS  (R12)(AX*1), Y0, Y0 \
	ADDQ    $48, R11           \
	JMP     next               \
done:

// LOADGRAD loads into reg the eight values of the Grad at R11: from F32 at
// byte offset AX, or widened from Half at BX = AX/2 by VCVTPH2PS, which is
// exact. GRADSUMHALF is GRADSUM over such sources; BX, R11, R12 and Y4 are
// scratch.
#define LOADGRAD(reg, half, loaded) \
	MOVQ      24(R11), R12     \
	TESTQ     R12, R12         \
	JNZ       half             \
	MOVQ      (R11), R12       \
	VMOVUPS   (R12)(AX*1), reg \
	JMP       loaded           \
half:                          \
	VCVTPH2PS (R12)(BX*1), reg \
loaded:

#define GRADSUMHALF(half0, loaded0, next, half, loaded, done) \
	MOVQ   AX, BX                \
	SHRQ   $1, BX                \
	MOVQ   R8, R11               \
	LOADGRAD(Y0, half0, loaded0) \
next:                            \
	ADDQ   $48, R11              \
	CMPQ   R11, R9               \
	JGE    done                  \
	LOADGRAD(Y4, half, loaded)   \
	VADDPS Y4, Y0, Y0            \
	JMP    next                  \
done:

// SGD_APPLY stores dst[i] = src[i] − lr·(Y0 + wd·src[i]) at byte offset AX,
// each operation rounded on its own.
#define SGD_APPLY \
	VMOVUPS (SI)(AX*1), Y1 \
	VMULPS  Y1, Y15, Y2    \
	VADDPS  Y2, Y0, Y0     \
	VMULPS  Y0, Y14, Y0    \
	VSUBPS  Y0, Y1, Y1     \
	VMOVUPS Y1, (DI)(AX*1)

// SGDM_APPLY is SGD_APPLY with momentum: v[i] = mu·v[i] + (Y0 + wd·src[i]);
// dst[i] = src[i] − lr·v[i].
#define SGDM_APPLY \
	VMOVUPS (SI)(AX*1), Y1    \
	VMULPS  Y1, Y15, Y2       \
	VADDPS  Y2, Y0, Y0        \
	VMULPS  (DX)(AX*1), Y13, Y3 \
	VADDPS  Y0, Y3, Y3        \
	VMOVUPS Y3, (DX)(AX*1)    \
	VMULPS  Y3, Y14, Y0       \
	VSUBPS  Y0, Y1, Y1        \
	VMOVUPS Y1, (DI)(AX*1)

// func sgdStepAVX2(dst, src []float32, gs []Grad, lr, wd float32)
//
// Whole windows of eight; dst may be src.
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ gs_base+48(FP), R8
	MOVQ gs_len+56(FP), R9
	VBROADCASTSS lr+72(FP), Y14
	VBROADCASTSS wd+76(FP), Y15
	LEAQ (R9)(R9*2), R9
	SHLQ $4, R9
	ADDQ R8, R9
	ANDQ $-8, CX
	SHLQ $2, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  sgd_done

sgd_loop:
	GRADSUM(sgd_next, sgd_summed)
	SGD_APPLY
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  sgd_loop

sgd_done:
	VZEROUPPER
	RET

// func sgdStepHalfAVX2(dst, src []float32, gs []Grad, lr, wd float32)
TEXT ·sgdStepHalfAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ gs_base+48(FP), R8
	MOVQ gs_len+56(FP), R9
	VBROADCASTSS lr+72(FP), Y14
	VBROADCASTSS wd+76(FP), Y15
	LEAQ (R9)(R9*2), R9
	SHLQ $4, R9
	ADDQ R8, R9
	ANDQ $-8, CX
	SHLQ $2, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  sgdh_done

sgdh_loop:
	GRADSUMHALF(sgdh_half0, sgdh_loaded0, sgdh_next, sgdh_half, sgdh_loaded, sgdh_summed)
	SGD_APPLY
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  sgdh_loop

sgdh_done:
	VZEROUPPER
	RET

// func sgdMomentumStepAVX2(dst, src, v []float32, gs []Grad, lr, mu, wd float32)
TEXT ·sgdMomentumStepAVX2(SB), NOSPLIT, $0-108
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ gs_base+72(FP), R8
	MOVQ gs_len+80(FP), R9
	VBROADCASTSS lr+96(FP), Y14
	VBROADCASTSS mu+100(FP), Y13
	VBROADCASTSS wd+104(FP), Y15
	LEAQ (R9)(R9*2), R9
	SHLQ $4, R9
	ADDQ R8, R9
	ANDQ $-8, CX
	SHLQ $2, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  sgdm_done

sgdm_loop:
	GRADSUM(sgdm_next, sgdm_summed)
	SGDM_APPLY
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  sgdm_loop

sgdm_done:
	VZEROUPPER
	RET

// func sgdMomentumStepHalfAVX2(dst, src, v []float32, gs []Grad, lr, mu, wd float32)
TEXT ·sgdMomentumStepHalfAVX2(SB), NOSPLIT, $0-108
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ gs_base+72(FP), R8
	MOVQ gs_len+80(FP), R9
	VBROADCASTSS lr+96(FP), Y14
	VBROADCASTSS mu+100(FP), Y13
	VBROADCASTSS wd+104(FP), Y15
	LEAQ (R9)(R9*2), R9
	SHLQ $4, R9
	ADDQ R8, R9
	ANDQ $-8, CX
	SHLQ $2, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  sgdmh_done

sgdmh_loop:
	GRADSUMHALF(sgdmh_half0, sgdmh_loaded0, sgdmh_next, sgdmh_half, sgdmh_loaded, sgdmh_summed)
	SGDM_APPLY
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  sgdmh_loop

sgdmh_done:
	VZEROUPPER
	RET
