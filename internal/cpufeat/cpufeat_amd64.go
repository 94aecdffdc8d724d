package cpufeat

// X86 is what the probe found on this CPU. Read-only after initialization.
var X86 = probe()

func probe() Features {
	avx, avx2 := x86Features()
	return Features{HasAVX: avx, HasAVX2: avx2}
}

// x86Features checks CPUID.1:ECX for OSXSAVE and AVX, XCR0 for enabled SSE
// and AVX state, and — only once those hold — CPUID.7.0:EBX for AVX2.
func x86Features() (avx, avx2 bool)
