//go:build !purego

#include "textflag.h"

// AVX2+FMA forms of the two matmul inner loops (matmul.go: mm4Rows, mmDot4);
// internal/cpu holds the probe that decides whether they may run. Both kernels
// walk 16 floats per main-loop pass (two YMM vectors), then at most one
// 8-float pass, then a scalar VFMADD231SS tail, so no load or store ever
// touches memory past the slice lengths; every vector access is unaligned
// (VMOVUPS / memory-operand FMA). Callers guarantee len(b0..b3) >= the first
// operand's length (matmul.go slices all five to the same width).

// func fma4RowsAVX2(ob, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
//
// ob[j] = fma(a3,b3[j], fma(a2,b2[j], fma(a1,b1[j], fma(a0,b0[j], ob[j]))))
// for j in [0, len(ob)).
TEXT ·fma4RowsAVX2(SB), NOSPLIT, $0-136
	MOVQ ob_base+0(FP), DI
	MOVQ ob_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSS a0+120(FP), Y0
	VBROADCASTSS a1+124(FP), Y1
	VBROADCASTSS a2+128(FP), Y2
	VBROADCASTSS a3+132(FP), Y3

	MOVQ CX, DX
	SHRQ $4, DX              // DX = 16-float passes
	JZ   fma_tail8

fma_loop16:
	VMOVUPS     (DI), Y4
	VMOVUPS     32(DI), Y5
	VFMADD231PS (R8), Y0, Y4
	VFMADD231PS 32(R8), Y0, Y5
	VFMADD231PS (R9), Y1, Y4
	VFMADD231PS 32(R9), Y1, Y5
	VFMADD231PS (R10), Y2, Y4
	VFMADD231PS 32(R10), Y2, Y5
	VFMADD231PS (R11), Y3, Y4
	VFMADD231PS 32(R11), Y3, Y5
	VMOVUPS     Y4, (DI)
	VMOVUPS     Y5, 32(DI)
	ADDQ        $64, DI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R11
	DECQ        DX
	JNZ         fma_loop16

fma_tail8:
	ANDQ $15, CX             // CX = floats left, < 16
	CMPQ CX, $8
	JLT  fma_tail1
	VMOVUPS     (DI), Y4
	VFMADD231PS (R8), Y0, Y4
	VFMADD231PS (R9), Y1, Y4
	VFMADD231PS (R10), Y2, Y4
	VFMADD231PS (R11), Y3, Y4
	VMOVUPS     Y4, (DI)
	ADDQ        $32, DI
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	SUBQ        $8, CX

fma_tail1:
	TESTQ CX, CX
	JZ    fma_done

fma_loop1:
	VMOVSS      (DI), X4
	VFMADD231SS (R8), X0, X4
	VFMADD231SS (R9), X1, X4
	VFMADD231SS (R10), X2, X4
	VFMADD231SS (R11), X3, X4
	VMOVSS      X4, (DI)
	ADDQ        $4, DI
	ADDQ        $4, R8
	ADDQ        $4, R9
	ADDQ        $4, R10
	ADDQ        $4, R11
	DECQ        CX
	JNZ         fma_loop1

fma_done:
	VZEROUPPER
	RET

// func dot4AVX2(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32)
//
// s_r = sum over kk of a[kk]*b_r[kk]. Each s_r is accumulated in 8 vector
// lanes (16 in the main loop), reduced lane-wise, then joined by the scalar
// tail's partial sum, so the k-sum is reassociated relative to mmDot4.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-136
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	MOVQ CX, DX
	SHRQ $4, DX              // DX = 16-float passes
	JZ   dot_tail8
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

dot_loop16:
	VMOVUPS     (DI), Y8
	VMOVUPS     32(DI), Y9
	VFMADD231PS (R8), Y8, Y0
	VFMADD231PS 32(R8), Y9, Y4
	VFMADD231PS (R9), Y8, Y1
	VFMADD231PS 32(R9), Y9, Y5
	VFMADD231PS (R10), Y8, Y2
	VFMADD231PS 32(R10), Y9, Y6
	VFMADD231PS (R11), Y8, Y3
	VFMADD231PS 32(R11), Y9, Y7
	ADDQ        $64, DI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R11
	DECQ        DX
	JNZ         dot_loop16
	VADDPS      Y4, Y0, Y0
	VADDPS      Y5, Y1, Y1
	VADDPS      Y6, Y2, Y2
	VADDPS      Y7, Y3, Y3

dot_tail8:
	ANDQ $15, CX             // CX = floats left, < 16
	CMPQ CX, $8
	JLT  dot_reduce
	VMOVUPS     (DI), Y8
	VFMADD231PS (R8), Y8, Y0
	VFMADD231PS (R9), Y8, Y1
	VFMADD231PS (R10), Y8, Y2
	VFMADD231PS (R11), Y8, Y3
	ADDQ        $32, DI
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	SUBQ        $8, CX

dot_reduce:
	// Y0..Y3 hold eight partial sums each; fold them to X0 = [s0 s1 s2 s3].
	VHADDPS      Y1, Y0, Y0  // per 128-bit lane: [y0 y0 y1 y1] pair sums
	VHADDPS      Y3, Y2, Y2  // per 128-bit lane: [y2 y2 y3 y3] pair sums
	VHADDPS      Y2, Y0, Y0  // per 128-bit lane: [y0 y1 y2 y3] lane sums
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0

	TESTQ CX, CX
	JZ    dot_done
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7

dot_loop1:
	VMOVSS      (DI), X8
	VFMADD231SS (R8), X8, X4
	VFMADD231SS (R9), X8, X5
	VFMADD231SS (R10), X8, X6
	VFMADD231SS (R11), X8, X7
	ADDQ        $4, DI
	ADDQ        $4, R8
	ADDQ        $4, R9
	ADDQ        $4, R10
	ADDQ        $4, R11
	DECQ        CX
	JNZ         dot_loop1
	VUNPCKLPS   X5, X4, X4   // [t0 t1 . .]
	VUNPCKLPS   X7, X6, X6   // [t2 t3 . .]
	VMOVLHPS    X6, X4, X4   // [t0 t1 t2 t3]
	VADDPS      X4, X0, X0

dot_done:
	VMOVSS     X0, s0+120(FP)
	VEXTRACTPS $1, X0, s1+124(FP)
	VEXTRACTPS $2, X0, s2+128(FP)
	VEXTRACTPS $3, X0, s3+132(FP)
	VZEROUPPER
	RET
