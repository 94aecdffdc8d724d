#include "textflag.h"

// The contract of these kernels (see elemwise.go): each lane is one output
// element and every instruction only selects among its inputs, so the bits
// depend on operand order alone. MINPS/MAXPS return their second source —
// the first operand in Go's order — when either source is NaN and when both
// are zeros; each use below names which operand that is.

// func reluAVX(dst, src *float32, n int)
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0 // +0
	SHRQ   $3, CX     // whole 8-lane steps; the wrapper finishes the rest
	JZ     reludone
	XORQ   AX, AX     // byte offset into both rows

reluloop:
	VMOVUPS (SI)(AX*1), Y1
	VMAXPS  Y0, Y1, Y1 // second source +0: NaN -> +0, -0 -> +0
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     reluloop

reludone:
	VZEROUPPER
	RET

// func clampAVX(dst, src *float32, n int, ceil float32)
TEXT ·clampAVX(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS ceil+24(FP), Y2
	VXORPS       Y0, Y0, Y0
	SHRQ         $3, CX
	JZ           clampdone
	XORQ         AX, AX

clamploop:
	VMOVUPS (SI)(AX*1), Y1
	VMINPS  Y2, Y1, Y1 // second source ceil: NaN -> ceil, v >= ceil -> ceil
	VMAXPS  Y0, Y1, Y1 // second source +0: v <= 0 -> +0
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     clamploop

clampdone:
	VZEROUPPER
	RET

DATA negInf<>+0(SB)/4, $0xff800000
GLOBL negInf<>(SB), RODATA|NOPTR, $4

// func maxPool2x2AVX(dst, row0, row1 *float32, n int)
TEXT ·maxPool2x2AVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         row0+8(FP), SI
	MOVQ         row1+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS negInf<>(SB), Y0
	SHRQ         $3, CX // eight outputs, sixteen inputs of each row, per step
	JZ           pooldone

poolloop:
	// Elements 0-3 and 8-11 of the row share one register, 4-7 and 12-15
	// the other, so that the in-lane shuffles below leave the even taps
	// (and the odd ones) in output order.
	VMOVUPS     (SI), X1
	VINSERTF128 $1, 32(SI), Y1, Y1
	VMOVUPS     16(SI), X2
	VINSERTF128 $1, 48(SI), Y2, Y2
	VSHUFPS     $0x88, Y2, Y1, Y3 // row0[2j]
	VSHUFPS     $0xDD, Y2, Y1, Y4 // row0[2j+1]
	VMAXPS      Y0, Y3, Y3        // second source -Inf: a NaN tap loses
	VMAXPS      Y3, Y4, Y3        // second source the running maximum: ties keep the earlier tap
	VMOVUPS     (DX), X1
	VINSERTF128 $1, 32(DX), Y1, Y1
	VMOVUPS     16(DX), X2
	VINSERTF128 $1, 48(DX), Y2, Y2
	VSHUFPS     $0x88, Y2, Y1, Y5 // row1[2j]
	VSHUFPS     $0xDD, Y2, Y1, Y6 // row1[2j+1]
	VMAXPS      Y0, Y5, Y5
	VMAXPS      Y5, Y6, Y5
	VMAXPS      Y3, Y5, Y3        // second source row 0's maximum
	VMOVUPS     Y3, (DI)
	ADDQ        $64, SI
	ADDQ        $64, DX
	ADDQ        $32, DI
	DECQ        CX
	JNZ         poolloop

pooldone:
	VZEROUPPER
	RET
