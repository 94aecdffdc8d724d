#include "textflag.h"

// The register-tiled micro-kernel of the gemm backend, under the contract
// of axpy_amd64.s (see axpy.go): each lane is one output element, multiply
// and add are separate rounded instructions in the scalar body's operand
// order, and nothing is reduced across lanes. `make asm-check` rejects
// fused and horizontal opcodes in this file.

// ROW broadcasts one weight and feeds the two accumulators of its row:
// weight × panel, then product + accumulator.
#define ROW(wt, lo, hi) \
	VBROADCASTSS wt, Y10   \
	VMULPS       Y8, Y10, Y11 \
	VMULPS       Y9, Y10, Y12 \
	VADDPS       lo, Y11, lo  \
	VADDPS       hi, Y12, hi

// func tileAVX(dst *float32, dstStride int, init *[4]float32, w *float32, wStride int, panel *float32, panelStride, k int)
TEXT ·tileAVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), DX
	MOVQ init+16(FP), AX
	MOVQ w+24(FP), SI
	MOVQ wStride+32(FP), BX
	MOVQ panel+40(FP), R8
	MOVQ panelStride+48(FP), R11
	MOVQ k+56(FP), CX
	SHLQ $2, DX          // strides in bytes
	SHLQ $2, BX
	SHLQ $2, R11
	LEAQ (DI)(DX*2), R9  // dst rows 2 and 3
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
	VMOVUPS (R8), Y8
	VMOVUPS 32(R8), Y9
	ROW((SI), Y0, Y1)
	ROW((SI)(BX*1), Y2, Y3)
	ROW((SI)(BX*2), Y4, Y5)
	ROW((SI)(R10*1), Y6, Y7)
	ADDQ R11, R8
	ADDQ $4, SI
	DECQ CX
	JNZ  loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(DX*1)
	VMOVUPS Y3, 32(DI)(DX*1)
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, 32(R9)
	VMOVUPS Y6, (R9)(DX*1)
	VMOVUPS Y7, 32(R9)(DX*1)
	VZEROUPPER
	RET
