#include "textflag.h"

// The register-tiled micro-kernel of the gemm backend, under the contract
// of axpy_amd64.s (see axpy.go): each lane is one output element, multiply
// and add are separate rounded instructions in the scalar body's operand
// order, and nothing is reduced across lanes. `make asm-check` rejects
// fused and horizontal opcodes in this file. The kernel gathers nothing
// either: row p of the panel is two contiguous loads, eight floats at
// src+offs[p] and eight at src+offs[p]+hiDelta, wherever the table puts
// them — a staged strip, or a convolution's input where it lies.

// ROW broadcasts one weight and feeds the two accumulators of its row:
// weight × panel, then product + accumulator.
#define ROW(wt, lo, hi) \
	VBROADCASTSS wt, Y10   \
	VMULPS       Y8, Y10, Y11 \
	VMULPS       Y9, Y10, Y12 \
	VADDPS       lo, Y11, lo  \
	VADDPS       hi, Y12, hi

// func tileAVX(acc *[64]float32, init *[4]float32, w, src *float32, offs *int32, hiDelta, k int)
TEXT ·tileAVX(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ init+8(FP), AX
	MOVQ w+16(FP), SI
	MOVQ src+24(FP), R8
	MOVQ offs+32(FP), R9
	MOVQ hiDelta+40(FP), R11
	MOVQ k+48(FP), CX
	LEAQ (R8)(R11*4), R11 // the high eight columns, hiDelta floats on
	MOVQ CX, BX
	SHLQ $2, BX          // rows of w are k floats apart
	LEAQ (BX)(BX*2), R10 // w row 3

	VBROADCASTSS (AX), Y0
	VBROADCASTSS 4(AX), Y2
	VBROADCASTSS 8(AX), Y4
	VBROADCASTSS 12(AX), Y6
	VMOVAPS      Y0, Y1
	VMOVAPS      Y2, Y3
	VMOVAPS      Y4, Y5
	VMOVAPS      Y6, Y7

loop:
	MOVLQSX (R9), AX
	VMOVUPS (R8)(AX*4), Y8
	VMOVUPS (R11)(AX*4), Y9
	ROW((SI), Y0, Y1)
	ROW((SI)(BX*1), Y2, Y3)
	ROW((SI)(BX*2), Y4, Y5)
	ROW((SI)(R10*1), Y6, Y7)
	ADDQ $4, R9
	ADDQ $4, SI
	DECQ CX
	JNZ  loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET
