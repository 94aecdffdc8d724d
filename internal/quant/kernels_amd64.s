#include "textflag.h"

// The determinism contract of these kernels (see kernels.go): each lane is
// one element; the divide, the convert and the multiply are the same
// correctly rounded operations the scalar bodies perform; rounding to the
// nearest code is built from an exact truncate and an exact remainder, not
// from the MXCSR rounding mode. `make asm-check` rejects approximate
// reciprocals in this file.

// func maxAbsAVX(x *float32, n int) float32
TEXT ·maxAbsAVX(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVL         $0x7FFFFFFF, AX
	MOVQ         AX, X15
	VPBROADCASTD X15, Y15 // |v| mask
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	MOVQ         CX, DX
	SHRQ         $5, DX // 32-element steps, four independent maxima
	JZ           tail

loop32:
	VANDPS (SI), Y15, Y4
	VANDPS 32(SI), Y15, Y5
	VANDPS 64(SI), Y15, Y6
	VANDPS 96(SI), Y15, Y7
	// MAXPS returns its second source when either is NaN: the accumulator
	// is that source and is never NaN, so a NaN element is skipped.
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y5, Y1
	VMAXPS Y2, Y6, Y2
	VMAXPS Y3, Y7, Y3
	ADDQ   $128, SI
	DECQ   DX
	JNZ    loop32

tail:
	SHRQ $3, CX
	ANDQ $3, CX // remaining whole 8-element steps
	JZ   reduce

loop8:
	VANDPS (SI), Y15, Y4
	VMAXPS Y0, Y4, Y0
	ADDQ   $32, SI
	DECQ   CX
	JNZ    loop8

reduce:
	// Max is exact, so folding lanes together cannot change the result.
	VMAXPS       Y1, Y0, Y0
	VMAXPS       Y3, Y2, Y2
	VMAXPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// func quantizeAVX2(dst *uint32, src *float32, n int, scale float32, lo, hi int32, mask uint32)
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y0
	VBROADCASTSS lo+28(FP), Y1
	VBROADCASTSS hi+32(FP), Y2
	VBROADCASTSS mask+36(FP), Y3
	MOVL         $0x7FFFFFFF, AX
	MOVQ         AX, X4
	VPBROADCASTD X4, Y4 // |r| mask
	MOVL         $0x80000000, AX
	MOVQ         AX, X5
	VPBROADCASTD X5, Y5 // sign bit
	MOVL         $0x3F000000, AX
	MOVQ         AX, X6
	VPBROADCASTD X6, Y6 // 0.5
	MOVL         $0x3F800000, AX
	MOVQ         AX, X7
	VPBROADCASTD X7, Y7 // 1.0
	SHRQ         $3, CX // whole 8-lane steps; the wrapper finishes the rest
	JZ           qdone
	XORQ         AX, AX

qloop:
	VMOVUPS    (SI)(AX*1), Y8
	VDIVPS     Y0, Y8, Y8     // q = v / scale
	VROUNDPS   $3, Y8, Y9     // t = trunc(q)
	VSUBPS     Y9, Y8, Y10    // r = q - t, exact
	VANDPS     Y4, Y10, Y10   // |r|
	VCMPPS     $0x1D, Y6, Y10, Y10 // |r| >= 0.5 (false for NaN)
	VANDPS     Y5, Y8, Y11    // sign of q
	VORPS      Y7, Y11, Y11   // ±1
	VANDPS     Y10, Y11, Y11  // ±1 where the half is reached, else +0
	VADDPS     Y11, Y9, Y9    // round half away from zero, exact
	VCVTTPS2DQ Y9, Y9         // NaN, ±Inf, beyond int32: 0x80000000
	VPMAXSD    Y1, Y9, Y9
	VPMINSD    Y2, Y9, Y9
	VPAND      Y3, Y9, Y9
	VMOVDQU    Y9, (DI)(AX*1)
	ADDQ       $32, AX
	DECQ       CX
	JNZ        qloop

qdone:
	VZEROUPPER
	RET

// func dequantizeAVX2(dst *float32, codes *uint32, n int, scale float32, shift int)
TEXT ·dequantizeAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         codes+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y0
	MOVQ         shift+32(FP), X1
	SHRQ         $3, CX
	JZ           ddone
	XORQ         AX, AX

dloop:
	VMOVDQU   (SI)(AX*1), Y2
	VPSLLD    X1, Y2, Y2
	VPSRAD    X1, Y2, Y2 // sign-extended code
	VCVTDQ2PS Y2, Y2     // exact: |code| <= 2^15
	VMULPS    Y0, Y2, Y2
	VMOVUPS   Y2, (DI)(AX*1)
	ADDQ      $32, AX
	DECQ      CX
	JNZ       dloop

ddone:
	VZEROUPPER
	RET
