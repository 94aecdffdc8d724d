#include "textflag.h"

// The determinism contract of these kernels (see axpy.go): each lane is one
// output element, multiply and add are separate rounded instructions, and
// nothing is ever reduced across lanes. `make asm-check` rejects fused and
// horizontal opcodes in this file.

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
