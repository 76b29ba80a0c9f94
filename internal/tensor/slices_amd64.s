//go:build !purego

#include "textflag.h"

// AVX2 forms of the slice kernels (kernels.go). The ReLU and BatchNorm
// kernels (reluMask, maskGrad, sumDot, normalizePlane, planeGrad) run a whole
// slice, the up to seven values after the last window of eight through
// VMASKMOVPS; the others take whole windows of eight, and the Go bindings in
// kernels_amd64.go cut the slices and run the Go loop on the values after.
// Each trusts every operand to be as long as the first, so no load or store
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

// The ReLU mask kernels. A mask is one bit per element, R10 its base and R11
// the bit of the current element; BX is the number of elements of the
// current window, 8 or the 1 to 7 of a run's last one.

DATA lane8<>+0(SB)/4, $0
DATA lane8<>+4(SB)/4, $1
DATA lane8<>+8(SB)/4, $2
DATA lane8<>+12(SB)/4, $3
DATA lane8<>+16(SB)/4, $4
DATA lane8<>+20(SB)/4, $5
DATA lane8<>+24(SB)/4, $6
DATA lane8<>+28(SB)/4, $7
GLOBL lane8<>(SB), RODATA|NOPTR, $32

DATA bit8<>+0(SB)/4, $1
DATA bit8<>+4(SB)/4, $2
DATA bit8<>+8(SB)/4, $4
DATA bit8<>+12(SB)/4, $8
DATA bit8<>+16(SB)/4, $16
DATA bit8<>+20(SB)/4, $32
DATA bit8<>+24(SB)/4, $64
DATA bit8<>+28(SB)/4, $128
GLOBL bit8<>(SB), RODATA|NOPTR, $32

DATA negInf<>+0(SB)/4, $0xff800000
GLOBL negInf<>(SB), RODATA|NOPTR, $4

// TAILLANES sets Y11 to all ones in the first BX lanes and zero in the rest:
// the lane mask of the masked loads and stores of a run's last window.
#define TAILLANES \
	VMOVQ        BX, X11            \
	VPBROADCASTD X11, Y11           \
	VPCMPGTD     lane8<>(SB), Y11, Y11

// GETBITS loads into the low BX bits of AX the window's mask bits; the bits
// above them are unspecified. A window that starts on a byte, as every one
// does where a plane's size is a multiple of eight, is one byte load;
// otherwise the word after R11's is read only when the window reaches into
// it. CX, DX and R12 are scratch.
#define GETBITS(word, done) \
	MOVQ    R11, CX         \
	TESTQ   $7, CX          \
	JNZ     word            \
	SHRQ    $3, CX          \
	MOVBQZX (R10)(CX*1), AX \
	JMP     done            \
word:                       \
	MOVQ R11, DX            \
	SHRQ $6, DX             \
	LEAQ (R10)(DX*8), DX    \
	MOVQ (DX), AX           \
	ANDQ $63, CX            \
	SHRQ CX, AX             \
	ADDQ BX, CX             \
	CMPQ CX, $64            \
	JLE  done               \
	SUBQ BX, CX             \
	NEGQ CX                 \
	ADDQ $64, CX            \
	MOVQ 8(DX), R12         \
	SHLQ CX, R12            \
	ORQ  R12, AX            \
done:

// EXPAND sets each float lane i of Y12 to all ones where bit i of AX is set
// and to zero where it is not.
#define EXPAND \
	VMOVQ        AX, X12              \
	VPBROADCASTD X12, Y12             \
	VPAND        bit8<>(SB), Y12, Y12 \
	VPCMPEQD     bit8<>(SB), Y12, Y12

DATA bit4lo<>+0(SB)/8, $1
DATA bit4lo<>+8(SB)/8, $2
DATA bit4lo<>+16(SB)/8, $4
DATA bit4lo<>+24(SB)/8, $8
GLOBL bit4lo<>(SB), RODATA|NOPTR, $32

DATA bit4hi<>+0(SB)/8, $16
DATA bit4hi<>+8(SB)/8, $32
DATA bit4hi<>+16(SB)/8, $64
DATA bit4hi<>+24(SB)/8, $128
GLOBL bit4hi<>(SB), RODATA|NOPTR, $32

// EXPAND64 is EXPAND for a window converted to float64: each lane i of Y12
// (the window's first four values) and of Y13 (its last four) all ones
// where bit i, or bit 4+i, of AX is set. Masking a float64 lane gives the
// bits of converting the masked float32 (+0 either way).
#define EXPAND64 \
	VMOVQ        AX, X12                \
	VPBROADCASTQ X12, Y12               \
	VPAND        bit4hi<>(SB), Y12, Y13 \
	VPCMPEQQ     bit4hi<>(SB), Y13, Y13 \
	VPAND        bit4lo<>(SB), Y12, Y12 \
	VPCMPEQQ     bit4lo<>(SB), Y12, Y12

// PUTBITS sets the window's mask bits where the low BX bits of AX are set:
// one byte OR where the window starts on a byte. CX, DX and R12 are scratch;
// AX is destroyed.
#define PUTBITS(word, done) \
	MOVQ BX, CX            \
	MOVQ $1, R12           \
	SHLQ CX, R12           \
	DECQ R12               \
	ANDQ R12, AX           \
	MOVQ R11, CX           \
	TESTQ $7, CX           \
	JNZ  word              \
	SHRQ $3, CX            \
	ORB  AX, (R10)(CX*1)   \
	JMP  done              \
word:                      \
	MOVQ R11, DX           \
	SHRQ $6, DX            \
	LEAQ (R10)(DX*8), DX   \
	ANDQ $63, CX           \
	MOVQ AX, R12           \
	SHLQ CX, R12           \
	ORQ  R12, (DX)         \
	ADDQ BX, CX            \
	CMPQ CX, $64           \
	JLE  done              \
	SUBQ BX, CX            \
	NEGQ CX                \
	ADDQ $64, CX           \
	SHRQ CX, AX            \
	ORQ  AX, 8(DX)         \
done:

// func reluMaskAVX2(out, x []float32, mask []uint64)
//
// out[i] = x[i] where !(x[i] < 0), +0 elsewhere — the compare is
// not-less-than, true for NaN and for both zeros — and, unless mask is nil,
// the compare's bits into the cleared mask from bit 0: every window starts
// on a byte.
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-72
	MOVQ   out_base+0(FP), DI
	MOVQ   out_len+8(FP), R13
	MOVQ   x_base+24(FP), SI
	MOVQ   mask_base+48(FP), R10
	VXORPS Y9, Y9, Y9
	CMPQ   R13, $8
	JLT    relu_tail

relu_loop:
	VMOVUPS (SI), Y0
	VCMPPS  $0x15, Y9, Y0, Y10   // NLT_UQ: !(x < 0)
	VANDPS  Y10, Y0, Y0
	VMOVUPS Y0, (DI)
	TESTQ   R10, R10
	JZ      relu_next
	VMOVMSKPS Y10, AX
	MOVB    AX, (R10)
	INCQ    R10

relu_next:
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, R13
	CMPQ R13, $8
	JGE  relu_loop

relu_tail:
	TESTQ R13, R13
	JZ    relu_done
	MOVQ  R13, BX
	TAILLANES
	VMASKMOVPS (SI), Y11, Y0
	VCMPPS     $0x15, Y9, Y0, Y10
	VANDPS     Y10, Y0, Y0
	VMASKMOVPS Y0, Y11, (DI)
	TESTQ      R10, R10
	JZ         relu_done
	VANDPS     Y11, Y10, Y10
	VMOVMSKPS  Y10, AX
	MOVB       AX, (R10)

relu_done:
	VZEROUPPER
	RET

// func maskGradAVX2(dx, dy []float32, mask []uint64, bit int, add bool)
//
// dx[i] = dy[i] where bit+i of mask is set, +0 elsewhere; with add, dx[i] +=
// that, dx the add's first operand as in addSliceAVX2.
TEXT ·maskGradAVX2(SB), NOSPLIT, $0-81
	MOVQ    dx_base+0(FP), DI
	MOVQ    dx_len+8(FP), R13
	MOVQ    dy_base+24(FP), SI
	MOVQ    mask_base+48(FP), R10
	MOVQ    bit+72(FP), R11
	MOVBQZX add+80(FP), R9
	MOVQ    $8, BX
	CMPQ    R13, $8
	JLT     mg_tail

mg_loop:
	GETBITS(mg_got_word, mg_got)
	EXPAND
	VANDPS  (SI), Y12, Y0
	TESTQ   R9, R9
	JZ      mg_store
	VMOVUPS (DI), Y1
	VADDPS  Y0, Y1, Y0

mg_store:
	VMOVUPS Y0, (DI)
	ADDQ    $8, R11
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, R13
	CMPQ    R13, $8
	JGE     mg_loop

mg_tail:
	TESTQ R13, R13
	JZ    mg_done
	MOVQ  R13, BX
	GETBITS(mg_tgot_word, mg_tgot)
	EXPAND
	TAILLANES
	VMASKMOVPS (SI), Y11, Y0
	VANDPS     Y12, Y0, Y0
	TESTQ      R9, R9
	JZ         mg_tstore
	VMASKMOVPS (DI), Y11, Y1
	VADDPS     Y0, Y1, Y0

mg_tstore:
	VMASKMOVPS Y0, Y11, (DI)

mg_done:
	VZEROUPPER
	RET

// func sumDotAVX2(a, b []float32, mask []uint64, bit int) (sumA, sumAB float64)
//
// The sums of a[i] and of a[i]*b[i] in float64, in one pass, a read through
// the mask unless it is nil: whole windows of eight in four lanes to each of
// two accumulators, then the up to seven values after them in index order
// from zero, added last. A product of two float32 values is exact in
// float64, so fusing its add changes nothing.
TEXT ·sumDotAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), R13
	MOVQ b_base+24(FP), R8
	MOVQ mask_base+48(FP), R10
	MOVQ bit+72(FP), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ $8, BX
	CMPQ R13, $8
	JLT  dot64_reduce

dot64_loop:
	VCVTPS2PD (SI), Y4
	VCVTPS2PD 16(SI), Y5
	TESTQ     R10, R10
	JZ        dot64_read
	GETBITS(dot64_word, dot64_got)
	EXPAND64
	VANDPD    Y12, Y4, Y4
	VANDPD    Y13, Y5, Y5

dot64_read:
	VCVTPS2PD   (R8), Y6
	VCVTPS2PD   16(R8), Y7
	VADDPD      Y4, Y0, Y0
	VADDPD      Y5, Y1, Y1
	VFMADD231PD Y6, Y4, Y2
	VFMADD231PD Y7, Y5, Y3
	ADDQ        $8, R11
	ADDQ        $32, SI
	ADDQ        $32, R8
	SUBQ        $8, R13
	CMPQ        R13, $8
	JGE         dot64_loop

dot64_reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	REDUCEPD(Y0, X0, X1)
	REDUCEPD(Y2, X2, X3)
	VXORPD X10, X10, X10
	VXORPD X11, X11, X11
	TESTQ  R13, R13
	JZ     dot64_done
	MOVQ   $-1, AX
	TESTQ  R10, R10
	JZ     dot64_tail
	MOVQ   R13, BX
	GETBITS(dot64_tgot_word, dot64_tgot)

dot64_tail:
	VMOVSS    (SI), X4
	TESTQ     $1, AX
	JNZ       dot64_kept
	VXORPS    X4, X4, X4

dot64_kept:
	VCVTSS2SD X4, X4, X4
	VADDSD    X4, X10, X10
	VCVTSS2SD (R8), X5, X5
	VMULSD    X5, X4, X5
	VADDSD    X5, X11, X11
	SHRQ      $1, AX
	ADDQ      $4, SI
	ADDQ      $4, R8
	DECQ      R13
	JNZ       dot64_tail

dot64_done:
	VADDSD X10, X0, X0
	VADDSD X11, X2, X2
	VMOVSD X0, sumA+80(FP)
	VMOVSD X2, sumAB+88(FP)
	VZEROUPPER
	RET

// NORMALIZE takes eight floats, the first four at lo and the last four at
// hi (memory or X registers), to xh = (x-mean)*invStd in float64, Y4 mean
// and Y5 invStd, leaving float32(xh) in X3 (first four) and X8 (last four)
// and float32(gamma*xh+beta) in X1 and X2, Y6 gamma and Y7 beta, the
// product rounded before the add. A window converts straight from memory,
// each half on its own, with no lane shuffle beside the conversions.
#define NORMALIZE(lo, hi) \
	VCVTPS2PD  lo, Y1     \
	VCVTPS2PD  hi, Y2     \
	VSUBPD     Y4, Y1, Y1 \
	VSUBPD     Y4, Y2, Y2 \
	VMULPD     Y5, Y1, Y1 \
	VMULPD     Y5, Y2, Y2 \
	VCVTPD2PSY Y1, X3     \
	VCVTPD2PSY Y2, X8     \
	VMULPD     Y1, Y6, Y1 \
	VMULPD     Y2, Y6, Y2 \
	VADDPD     Y7, Y1, Y1 \
	VADDPD     Y7, Y2, Y2 \
	VCVTPD2PSY Y1, X1     \
	VCVTPD2PSY Y2, X2

// func normalizePlaneAVX2(out []float32, stride, width int, xhat, x, sc []float32, mask []uint64, bit int, relu bool, mean, invStd, gamma, beta float64)
//
// Row by row, width values each, row r of out at r*stride: NORMALIZE, xhat
// stored where not nil, sc added in float32 where not nil (y the add's first
// operand, as in addSliceAVX2), then the ReLU and its bits. Without relu the
// compare is against -Inf, which every value passes. sc is loaded before out
// is stored, so it may be out.
TEXT ·normalizePlaneAVX2(SB), NOSPLIT, $0-184
	MOVQ out_base+0(FP), DI
	MOVQ xhat_base+40(FP), R8
	MOVQ x_base+64(FP), SI
	MOVQ x_len+72(FP), R14
	LEAQ (SI)(R14*4), R14        // the end of x
	MOVQ sc_base+88(FP), R9
	MOVQ mask_base+112(FP), R10
	MOVQ bit+136(FP), R11
	VBROADCASTSD mean+152(FP), Y4
	VBROADCASTSD invStd+160(FP), Y5
	VBROADCASTSD gamma+168(FP), Y6
	VBROADCASTSD beta+176(FP), Y7
	VXORPS Y9, Y9, Y9
	CMPB   relu+144(FP), $0
	JNE    norm_row
	VBROADCASTSS negInf<>(SB), Y9

norm_row:
	MOVQ width+32(FP), R13
	MOVQ $8, BX
	CMPQ R13, $8
	JLT  norm_tail

norm_loop:
	NORMALIZE((SI), 16(SI))
	TESTQ   R8, R8
	JZ      norm_sc
	VMOVUPS X3, (R8)
	VMOVUPS X8, 16(R8)
	ADDQ    $32, R8

norm_sc:
	TESTQ  R9, R9
	JZ     norm_relu
	VADDPS (R9), X1, X1
	VADDPS 16(R9), X2, X2
	ADDQ   $32, R9

norm_relu:
	VCMPPS  $0x15, X9, X1, X10
	VCMPPS  $0x15, X9, X2, X13
	VANDPS  X10, X1, X1
	VANDPS  X13, X2, X2
	VMOVUPS X1, (DI)
	VMOVUPS X2, 16(DI)
	TESTQ   R10, R10
	JZ      norm_next
	VMOVMSKPS X10, AX
	VMOVMSKPS X13, CX
	SHLQ    $4, CX
	ORQ     CX, AX
	PUTBITS(norm_put_word, norm_put)

norm_next:
	ADDQ $8, R11
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, R13
	CMPQ R13, $8
	JGE  norm_loop

norm_tail:
	TESTQ R13, R13
	JZ    norm_rowend
	MOVQ  R13, BX
	TAILLANES
	VMASKMOVPS   (SI), Y11, Y0
	VEXTRACTF128 $1, Y0, X13
	NORMALIZE(X0, X13)
	VINSERTF128  $1, X8, Y3, Y3
	VINSERTF128  $1, X2, Y1, Y1
	TESTQ      R8, R8
	JZ         norm_tsc
	VMASKMOVPS Y3, Y11, (R8)
	LEAQ       (R8)(BX*4), R8

norm_tsc:
	TESTQ      R9, R9
	JZ         norm_trelu
	VMASKMOVPS (R9), Y11, Y2
	VADDPS     Y2, Y1, Y1
	LEAQ       (R9)(BX*4), R9

norm_trelu:
	VCMPPS     $0x15, Y9, Y1, Y10
	VANDPS     Y10, Y1, Y1
	VMASKMOVPS Y1, Y11, (DI)
	TESTQ      R10, R10
	JZ         norm_tnext
	VMOVMSKPS  Y10, AX
	PUTBITS(norm_tput_word, norm_tput)

norm_tnext:
	ADDQ BX, R11
	LEAQ (SI)(BX*4), SI
	LEAQ (DI)(BX*4), DI

norm_rowend:
	MOVQ stride+24(FP), AX
	SUBQ width+32(FP), AX
	LEAQ (DI)(AX*4), DI
	CMPQ SI, R14
	JLT  norm_row
	VZEROUPPER
	RET

// PLANEGRAD takes eight dy, in float64 in Y1 (first four) and Y2 (last
// four), and their xhat in Y3 and Y8 to dx = float32(c * (n*dy - sumDy -
// xhat*sumDyXHat)) in X1 and X2, every operation rounded on its own: Y4 c,
// Y5 n, Y6 sumDy, Y7 sumDyXHat.
#define PLANEGRAD \
	VMULPD     Y1, Y5, Y1 \
	VMULPD     Y2, Y5, Y2 \
	VSUBPD     Y6, Y1, Y1 \
	VSUBPD     Y6, Y2, Y2 \
	VMULPD     Y7, Y3, Y3 \
	VMULPD     Y7, Y8, Y8 \
	VSUBPD     Y3, Y1, Y1 \
	VSUBPD     Y8, Y2, Y2 \
	VMULPD     Y1, Y4, Y1 \
	VMULPD     Y2, Y4, Y2 \
	VCVTPD2PSY Y1, X1     \
	VCVTPD2PSY Y2, X2

// func planeGradAVX2(dx, dy, xhat []float32, mask []uint64, bit int, c, n, sumDy, sumDyXHat float64)
//
// PLANEGRAD over dx, dy read through the mask unless it is nil. dy is loaded
// before dx is stored, so it may be dx.
TEXT ·planeGradAVX2(SB), NOSPLIT, $0-136
	MOVQ dx_base+0(FP), DI
	MOVQ dx_len+8(FP), R13
	MOVQ dy_base+24(FP), SI
	MOVQ xhat_base+48(FP), R8
	MOVQ mask_base+72(FP), R10
	MOVQ bit+96(FP), R11
	VBROADCASTSD c+104(FP), Y4
	VBROADCASTSD n+112(FP), Y5
	VBROADCASTSD sumDy+120(FP), Y6
	VBROADCASTSD sumDyXHat+128(FP), Y7
	MOVQ $8, BX
	CMPQ R13, $8
	JLT  grad_tail

grad_loop:
	VCVTPS2PD (SI), Y1
	VCVTPS2PD 16(SI), Y2
	TESTQ     R10, R10
	JZ        grad_read
	GETBITS(grad_word, grad_got)
	EXPAND64
	VANDPD    Y12, Y1, Y1
	VANDPD    Y13, Y2, Y2

grad_read:
	VCVTPS2PD (R8), Y3
	VCVTPS2PD 16(R8), Y8
	PLANEGRAD
	VMOVUPS   X1, (DI)
	VMOVUPS   X2, 16(DI)
	ADDQ      $8, R11
	ADDQ      $32, SI
	ADDQ      $32, R8
	ADDQ      $32, DI
	SUBQ      $8, R13
	CMPQ      R13, $8
	JGE       grad_loop

grad_tail:
	TESTQ R13, R13
	JZ    grad_done
	MOVQ  R13, BX
	TAILLANES
	VMASKMOVPS (SI), Y11, Y0
	TESTQ      R10, R10
	JZ         grad_tread
	GETBITS(grad_tgot_word, grad_tgot)
	EXPAND
	VANDPS     Y12, Y0, Y0

grad_tread:
	VMASKMOVPS   (R8), Y11, Y3
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y3, X8
	VCVTPS2PD    X0, Y1
	VCVTPS2PD    X2, Y2
	VCVTPS2PD    X3, Y3
	VCVTPS2PD    X8, Y8
	PLANEGRAD
	VINSERTF128  $1, X2, Y1, Y1
	VMASKMOVPS   Y1, Y11, (DI)

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

// SGD_APPLY stores dst[i] = src[i] − lr·Y0 at byte offset AX, each operation
// rounded on its own.
#define SGD_APPLY \
	VMOVUPS (SI)(AX*1), Y1 \
	VMULPS  Y0, Y14, Y0    \
	VSUBPS  Y0, Y1, Y1     \
	VMOVUPS Y1, (DI)(AX*1)

// SGDM_APPLY is SGD_APPLY with momentum: v[i] = mu·v[i] + Y0;
// dst[i] = src[i] − lr·v[i].
#define SGDM_APPLY \
	VMOVUPS (SI)(AX*1), Y1    \
	VMULPS  (DX)(AX*1), Y13, Y3 \
	VADDPS  Y0, Y3, Y3        \
	VMOVUPS Y3, (DX)(AX*1)    \
	VMULPS  Y3, Y14, Y0       \
	VSUBPS  Y0, Y1, Y1        \
	VMOVUPS Y1, (DI)(AX*1)

// func sgdStepAVX2(dst, src []float32, gs []Grad, lr float32)
//
// Whole windows of eight; dst may be src.
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-76
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ gs_base+48(FP), R8
	MOVQ gs_len+56(FP), R9
	VBROADCASTSS lr+72(FP), Y14
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

// func sgdStepHalfAVX2(dst, src []float32, gs []Grad, lr float32)
TEXT ·sgdStepHalfAVX2(SB), NOSPLIT, $0-76
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ gs_base+48(FP), R8
	MOVQ gs_len+56(FP), R9
	VBROADCASTSS lr+72(FP), Y14
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

// func sgdMomentumStepAVX2(dst, src, v []float32, gs []Grad, lr, mu float32)
TEXT ·sgdMomentumStepAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ gs_base+72(FP), R8
	MOVQ gs_len+80(FP), R9
	VBROADCASTSS lr+96(FP), Y14
	VBROADCASTSS mu+100(FP), Y13
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

// func sgdMomentumStepHalfAVX2(dst, src, v []float32, gs []Grad, lr, mu float32)
TEXT ·sgdMomentumStepHalfAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ gs_base+72(FP), R8
	MOVQ gs_len+80(FP), R9
	VBROADCASTSS lr+96(FP), Y14
	VBROADCASTSS mu+100(FP), Y13
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
