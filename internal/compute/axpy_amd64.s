#include "textflag.h"

// The determinism contract of these kernels (see axpy.go): each lane is one
// output element, multiply and add are separate rounded instructions, and
// nothing is ever reduced across lanes. `make asm-check` rejects fused and
// horizontal opcodes in this file.

// func axpy4AVX(d0, d1, d2, d3, x *float32, n int, a0, a1, a2, a3 float32)
TEXT ·axpy4AVX(SB), NOSPLIT, $0-64
	MOVQ         d0+0(FP), R8
	MOVQ         d1+8(FP), R9
	MOVQ         d2+16(FP), R10
	MOVQ         d3+24(FP), R11
	MOVQ         x+32(FP), SI
	MOVQ         n+40(FP), CX
	VBROADCASTSS a0+48(FP), Y0
	VBROADCASTSS a1+52(FP), Y1
	VBROADCASTSS a2+56(FP), Y2
	VBROADCASTSS a3+60(FP), Y3
	SHRQ         $3, CX // whole 8-lane steps; the wrapper finishes the rest
	JZ           done4
	XORQ         AX, AX // byte offset into every row

loop4:
	VMOVUPS (SI)(AX*1), Y4
	VMULPS  Y4, Y0, Y5
	VMULPS  Y4, Y1, Y6
	VMULPS  Y4, Y2, Y7
	VMULPS  Y4, Y3, Y8
	VADDPS  (R8)(AX*1), Y5, Y5
	VADDPS  (R9)(AX*1), Y6, Y6
	VADDPS  (R10)(AX*1), Y7, Y7
	VADDPS  (R11)(AX*1), Y8, Y8
	VMOVUPS Y5, (R8)(AX*1)
	VMOVUPS Y6, (R9)(AX*1)
	VMOVUPS Y7, (R10)(AX*1)
	VMOVUPS Y8, (R11)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop4

done4:
	VZEROUPPER
	RET

// func axpyAVX(d, x *float32, n int, a float32)
TEXT ·axpyAVX(SB), NOSPLIT, $0-28
	MOVQ         d+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0
	SHRQ         $3, CX
	JZ           done1
	XORQ         AX, AX

loop1:
	VMULPS  (SI)(AX*1), Y0, Y1
	VADDPS  (DI)(AX*1), Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop1

done1:
	VZEROUPPER
	RET
