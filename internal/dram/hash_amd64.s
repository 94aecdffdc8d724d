#include "textflag.h"

// belowMasksAVX2 computes hashWith for four cells per YMM register, two
// registers per start (cells start+0..3 and start+4..7). Every step is
// integer arithmetic modulo 2^64 — xor, shift, add, the low 64 bits of a
// product — so each lane holds exactly the hash the scalar body computes.
// The first product is start·m1 + j·m1: one IMULQ per start, broadcast,
// plus the j·m1 column of consts. A later product z·m, whose low 64 bits
// are lo(z)·lo(m) + ((hi(z)·lo(m) + lo(z)·hi(m)) << 32), is three VPMULUDQ
// (32×32→64 on each lane's low halves).

// consts: j·m1 for j = 0..7, then m1 and m2.
DATA consts<>+0(SB)/8, $0x0000000000000000
DATA consts<>+8(SB)/8, $0xbf58476d1ce4e5b9
DATA consts<>+16(SB)/8, $0x7eb08eda39c9cb72
DATA consts<>+24(SB)/8, $0x3e08d64756aeb12b
DATA consts<>+32(SB)/8, $0xfd611db4739396e4
DATA consts<>+40(SB)/8, $0xbcb9652190787c9d
DATA consts<>+48(SB)/8, $0x7c11ac8ead5d6256
DATA consts<>+56(SB)/8, $0x3b69f3fbca42480f
DATA consts<>+64(SB)/8, $0xbf58476d1ce4e5b9
DATA consts<>+72(SB)/8, $0x94d049bb133111eb
GLOBL consts<>(SB), RODATA|NOPTR, $80

// z ^= z >> s, with t scratch.
#define XORSHR(s, z, t) VPSRLQ s, z, t; VPXOR t, z, z

// z *= m modulo 2^64, where mlo holds m (VPMULUDQ reads its low half) and
// mhi holds m >> 32; t1 and t2 are scratch.
#define MULQ(z, mlo, mhi, t1, t2) \
	VPSRLQ   $32, z, t1;  \
	VPMULUDQ mlo, t1, t1; \
	VPMULUDQ mhi, z, t2;  \
	VPADDQ   t2, t1, t1;  \
	VPSLLQ   $32, t1, t1; \
	VPMULUDQ mlo, z, z;   \
	VPADDQ   t1, z, z

// func belowMasksAVX2(key uint64, starts *uint64, n int, thr uint64, dst *uint8)
TEXT ·belowMasksAVX2(SB), NOSPLIT, $0-40
	MOVQ         starts+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         dst+32(FP), DI
	VPBROADCASTQ key+0(FP), Y11
	VPBROADCASTQ thr+24(FP), Y10
	VMOVDQU      consts<>+0(SB), Y9  // j·m1, j = 0..3
	VMOVDQU      consts<>+32(SB), Y8 // j·m1, j = 4..7
	MOVQ         consts<>+64(SB), R8
	VPBROADCASTQ consts<>+64(SB), Y15
	VPSRLQ       $32, Y15, Y14
	VPBROADCASTQ consts<>+72(SB), Y13
	VPSRLQ       $32, Y13, Y12
	TESTQ        CX, CX
	JZ           done

loop:
	MOVQ         (SI), AX
	IMULQ        R8, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	VPADDQ       Y8, Y0, Y4
	VPADDQ       Y9, Y0, Y0
	VPXOR        Y11, Y0, Y0 // z = key ^ c·m1
	VPXOR        Y11, Y4, Y4
	XORSHR($30, Y0, Y1)
	XORSHR($30, Y4, Y5)
	MULQ(Y0, Y15, Y14, Y1, Y2)
	MULQ(Y4, Y15, Y14, Y5, Y6)
	XORSHR($27, Y0, Y1)
	XORSHR($27, Y4, Y5)
	MULQ(Y0, Y13, Y12, Y1, Y2)
	MULQ(Y4, Y13, Y12, Y5, Y6)
	XORSHR($31, Y0, Y1)
	XORSHR($31, Y4, Y5)
	VPSRLQ       $11, Y0, Y0
	VPSRLQ       $11, Y4, Y4
	VPCMPGTQ     Y0, Y10, Y0 // thr > draw: both below 2^63, so signed is unsigned
	VPCMPGTQ     Y4, Y10, Y4
	VMOVMSKPD    Y0, AX
	VMOVMSKPD    Y4, BX
	SHLL         $4, BX
	ORL          BX, AX
	MOVB         AX, (DI)
	ADDQ         $8, SI
	INCQ         DI
	DECQ         CX
	JNZ          loop

done:
	VZEROUPPER
	RET
