//go:build !purego

#include "textflag.h"

// F16C/AVX2 forms of the eight slice kernels of kernels.go. Each walks whole
// windows of eight values and nothing else: the Go wrappers in
// kernels_amd64.go hand over len &^ 7 values and run the Go loop on what is
// left, so no load or store touches memory past the slice lengths. Every
// vector access is unaligned (packed payloads alias frame bodies at arbitrary
// offsets). The results are the Go loops' bit for bit; where the hardware
// would differ — NaNs through the two half conversions — a window that holds
// one is patched lane-wise before it is stored.

DATA f16k<>+0(SB)/4, $0x80000000  // float32 sign
DATA f16k<>+4(SB)/4, $0x7fc00000  // float32 quiet NaN, no payload
DATA f16k<>+8(SB)/4, $0x7f800000  // float32 exponent, all ones
DATA f16k<>+12(SB)/4, $0x007fe000 // half mantissa, moved to its float32 place
DATA f16k<>+16(SB)/4, $0x7fffffff // float32 magnitude
DATA f16k<>+20(SB)/4, $0x4B400000 // roundMagic, 1.5·2^23 (bits and value)
DATA f16k<>+24(SB)/4, $127
DATA f16k<>+28(SB)/4, $-127
GLOBL f16k<>(SB), RODATA|NOPTR, $32

#define K_SIGN  f16k<>+0(SB)
#define K_QNAN  f16k<>+4(SB)
#define K_EXP   f16k<>+8(SB)
#define K_HMANT f16k<>+12(SB)
#define K_ABS   f16k<>+16(SB)
#define K_MAGIC f16k<>+20(SB)
#define K_P127  f16k<>+24(SB)
#define K_M127  f16k<>+28(SB)

// CANON_NANS(v, mask, tmp) rewrites the lanes of v that mask selects (the
// NaNs) as sign|0x7fc00000, which VCVTPS2PH turns into floatToHalf's
// sign|0x7e00; the hardware alone would carry the payload's top bits over.
#define CANON_NANS(v, mask, tmp) \
	VBROADCASTSS K_SIGN, tmp; \
	VANDPS       v, tmp, tmp; \
	VBROADCASTSS K_QNAN, Y15; \
	VORPS        Y15, tmp, tmp; \
	VBLENDVPS    mask, tmp, v, v

// func encodeF16F16C(dst []byte, src []float32)
//
// dst[2i:2i+2] = half(src[i]), round to nearest even (VCVTPS2PH $0: correct
// subnormals, overflow to Inf, MXCSR not consulted). len(src) is a multiple
// of 8 and len(dst) >= 2*len(src).
TEXT ·encodeF16F16C(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $3, CX
	JZ   enc_done

enc_loop:
	VMOVUPS   (SI), Y0
	VCMPPS    $3, Y0, Y0, Y1 // unordered with itself: the NaN lanes
	VMOVMSKPS Y1, AX
	TESTL     AX, AX
	JNZ       enc_nan

enc_cvt:
	VCVTPS2PH $0, Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       enc_loop

enc_done:
	VZEROUPPER
	RET

enc_nan:
	CANON_NANS(Y0, Y1, Y2)
	JMP enc_cvt

// func encodeF16FeedbackF16C(dst []byte, r, g []float32)
//
// Per element: s = r + g; h = half(s); dst = h; r = s − float(h). One loop
// body, no table: VCVTPH2PS is exact, and of a half that VCVTPS2PH just made
// (never a signalling NaN) it is the table's value. The subtraction keeps s
// as its first operand, as the Go loop does, so a NaN sum stays that NaN.
// len(r) is a multiple of 8, len(g) >= len(r), len(dst) >= 2*len(r).
TEXT ·encodeF16FeedbackF16C(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ r_base+24(FP), R8
	MOVQ r_len+32(FP), CX
	MOVQ g_base+48(FP), SI
	SHRQ $3, CX
	JZ   fb_done

fb_loop:
	VMOVUPS   (R8), Y0
	VADDPS    (SI), Y0, Y0
	VCMPPS    $3, Y0, Y0, Y1
	VMOVMSKPS Y1, AX
	TESTL     AX, AX
	JNZ       fb_nan
	VCVTPS2PH $0, Y0, X2

fb_store:
	VMOVDQU   X2, (DI)
	VCVTPH2PS X2, Y3
	VSUBPS    Y3, Y0, Y0
	VMOVUPS   Y0, (R8)
	ADDQ      $32, R8
	ADDQ      $32, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       fb_loop

fb_done:
	VZEROUPPER
	RET

fb_nan:
	VMOVAPS   Y0, Y4
	CANON_NANS(Y4, Y1, Y2)
	VCVTPS2PH $0, Y4, X2
	JMP       fb_store

// func decodeF16F16C(dst []float32, src []byte)
//
// dst[i] = float(src[2i:2i+2]), exact. VCVTPH2PS quiets a signalling half NaN
// where halfTable keeps its mantissa as it is, so the NaN lanes of a window
// are rebuilt the table's way: sign<<16 | 0x7f800000 | mant<<13.
// len(dst) is a multiple of 8 and len(src) >= 2*len(dst).
TEXT ·decodeF16F16C(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $3, CX
	JZ   dec_done

dec_loop:
	VMOVDQU   (SI), X0
	VCVTPH2PS X0, Y1
	VCMPPS    $3, Y1, Y1, Y2
	VMOVMSKPS Y2, AX
	TESTL     AX, AX
	JNZ       dec_nan

dec_store:
	VMOVUPS Y1, (DI)
	ADDQ    $16, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     dec_loop

dec_done:
	VZEROUPPER
	RET

dec_nan:
	VPMOVZXWD    X0, Y3
	VPSLLD       $13, Y3, Y4
	VPBROADCASTD K_HMANT, Y5
	VPAND        Y5, Y4, Y4     // mant<<13
	VPSLLD       $16, Y3, Y3
	VPBROADCASTD K_SIGN, Y5
	VPAND        Y5, Y3, Y3     // sign<<16
	VPOR         Y3, Y4, Y4
	VPBROADCASTD K_EXP, Y5
	VPOR         Y5, Y4, Y4
	VBLENDVPS    Y2, Y4, Y1, Y1
	JMP          dec_store

// HMAX(Y, X, T) folds the eight lanes of Y (none of them NaN) into lane 0 of
// X, its low half; a maximum does not depend on the order it is taken in.
#define HMAX(Y, X, T) \
	VEXTRACTF128 $1, Y, T; \
	VMAXPS       T, X, X; \
	VPERMILPS    $0x4e, X, T; \
	VMAXPS       T, X, X; \
	VPERMILPS    $0xb1, X, T; \
	VMAXPS       T, X, X

// func maxAbsAVX2(data []float32) float32
//
// The largest |data[i]|. VMAXPS returns its second source (the first operand
// in this syntax: the running maximum) when the other is a NaN, which is the
// Go loop's "a > m" — a NaN never wins. len(data) is a multiple of 8.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-28
	MOVQ         data_base+0(FP), SI
	MOVQ         data_len+8(FP), CX
	VBROADCASTSS K_ABS, Y7
	VXORPS       Y0, Y0, Y0
	SHRQ         $3, CX
	JZ           max_done

max_loop:
	VANDPS (SI), Y7, Y1
	VMAXPS Y0, Y1, Y0
	ADDQ   $32, SI
	DECQ   CX
	JNZ    max_loop
	HMAX(Y0, X0, X1)

max_done:
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

// func addMaxAbsAVX2(r, g []float32) float32
//
// r[i] += g[i]; returns the largest |r[i]| of the sums, as maxAbsAVX2 would.
// len(r) is a multiple of 8 and len(g) >= len(r).
TEXT ·addMaxAbsAVX2(SB), NOSPLIT, $0-52
	MOVQ         r_base+0(FP), DI
	MOVQ         r_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	VBROADCASTSS K_ABS, Y7
	VXORPS       Y0, Y0, Y0
	SHRQ         $3, CX
	JZ           addmax_done

addmax_loop:
	VMOVUPS (DI), Y1
	VADDPS  (SI), Y1, Y1
	VMOVUPS Y1, (DI)
	VANDPS  Y7, Y1, Y1
	VMAXPS  Y0, Y1, Y0
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     addmax_loop
	HMAX(Y0, X0, X1)

addmax_done:
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

// Q8_CONSTS loads what QUANTIZE needs beside the scale in every lane of Y5:
// Y6 = roundMagic (its bits are roundMagicBits), Y7 = 127, Y8 = −127.
#define Q8_CONSTS \
	VBROADCASTSS K_MAGIC, Y6; \
	VPBROADCASTD K_P127, Y7; \
	VPBROADCASTD K_M127, Y8

// QUANTIZE(v) is quantize() on eight lanes, in place: int32(bits(v/scale +
// roundMagic)) − roundMagicBits, clamped to [−127, 127]. A true division and
// a separate add, as the Go code has them: a reciprocal multiply or a fused
// form would round differently.
#define QUANTIZE(v) \
	VDIVPS  Y5, v, v; \
	VADDPS  Y6, v, v; \
	VPSUBD  Y6, v, v; \
	VPMINSD Y7, v, v; \
	VPMAXSD Y8, v, v

// PACK8(Yq, Xq, T, dst) stores the eight int32 of Yq, each within int8, as
// eight bytes at dst. The saturating packs never saturate on clamped input.
#define PACK8(Y, X, T, dst) \
	VEXTRACTI128 $1, Y, T; \
	VPACKSSDW    T, X, T; \
	VPACKSSWB    T, T, T; \
	VMOVQ        T, dst

// func encodeQ8AVX2(dst []byte, src []float32, scale float32)
//
// dst[i] = byte(quantize(src[i], scale)). len(src) is a multiple of 8 and
// len(dst) >= len(src).
TEXT ·encodeQ8AVX2(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VBROADCASTSS scale+48(FP), Y5
	Q8_CONSTS
	SHRQ $3, CX
	JZ   q8_done

q8_loop:
	VMOVUPS (SI), Y0
	QUANTIZE(Y0)
	PACK8(Y0, X0, X1, (DI))
	ADDQ    $32, SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     q8_loop

q8_done:
	VZEROUPPER
	RET

// func encodeQ8FeedbackAVX2(dst []byte, r []float32, scale float32)
//
// q = quantize(r[i], scale); dst[i] = byte(q); r[i] −= float32(q)·scale. The
// product is rounded before the subtraction (VMULPS then VSUBPS, never an
// FMA), as the Go loop compiled for amd64 rounds it.
TEXT ·encodeQ8FeedbackAVX2(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ r_base+24(FP), SI
	MOVQ r_len+32(FP), CX
	VBROADCASTSS scale+48(FP), Y5
	Q8_CONSTS
	SHRQ $3, CX
	JZ   q8fb_done

q8fb_loop:
	VMOVUPS   (SI), Y2
	VMOVAPS   Y2, Y0
	QUANTIZE(Y0)
	VCVTDQ2PS Y0, Y3
	VMULPS    Y5, Y3, Y3
	VSUBPS    Y3, Y2, Y2
	VMOVUPS   Y2, (SI)
	PACK8(Y0, X0, X1, (DI))
	ADDQ      $32, SI
	ADDQ      $8, DI
	DECQ      CX
	JNZ       q8fb_loop

q8fb_done:
	VZEROUPPER
	RET

// func decodeQ8AVX2(dst []float32, src []byte, scale float32)
//
// dst[i] = float32(int8(src[i])) · scale. len(dst) is a multiple of 8 and
// len(src) >= len(dst).
TEXT ·decodeQ8AVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSS scale+48(FP), Y5
	SHRQ         $3, CX
	JZ           dq8_done

dq8_loop:
	VPMOVSXBD (SI), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    Y5, Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $8, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       dq8_loop

dq8_done:
	VZEROUPPER
	RET
