#include "textflag.h"

// func x86Features() (avx, avx2 bool)
TEXT ·x86Features(SB), NOSPLIT, $0-2
	MOVB $0, avx+0(FP)
	MOVB $0, avx2+1(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE (bit 1) | AVX (bit 2) state enabled
	CMPL AX, $6
	JNE  done
	MOVB $1, avx+0(FP)
	XORL AX, AX
	CPUID // AX = highest basic leaf
	CMPL AX, $7
	JCS  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX // CPUID.7.0:EBX bit 5 = AVX2
	JCC  done
	MOVB $1, avx2+1(FP)

done:
	RET
