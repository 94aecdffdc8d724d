package compute

import "repro/internal/cpufeat"

// hasVec reports whether the AVX kernels may run: the CPU implements AVX
// and the OS saves the YMM state across context switches.
var hasVec = cpufeat.X86.HasAVX

// axpy4AVX runs d_i[j] += a_i·x[j] for j in [0, n&^7) with VMULPS then
// VADDPS (never a fused multiply-add), eight elements per step. The
// pointers address rows of at least n elements.
//
//go:noescape
func axpy4AVX(d0, d1, d2, d3, x *float32, n int, a0, a1, a2, a3 float32)

// axpyAVX is the single-row form of axpy4AVX.
//
//go:noescape
func axpyAVX(d, x *float32, n int, a float32)

// axpy4 updates four destination rows from one source row:
// d_i[j] += a_i·x[j] for every j < len(x). Bit-identical to axpy4Scalar.
func axpy4(d0, d1, d2, d3, x []float32, a0, a1, a2, a3 float32) {
	n := len(x)
	d0, d1, d2, d3 = d0[:n], d1[:n], d2[:n], d3[:n]
	if useVec && n >= vecLanes {
		axpy4AVX(&d0[0], &d1[0], &d2[0], &d3[0], &x[0], n, a0, a1, a2, a3)
		m := n &^ (vecLanes - 1)
		d0, d1, d2, d3, x = d0[m:], d1[m:], d2[m:], d3[m:], x[m:]
	}
	axpy4Scalar(d0, d1, d2, d3, x, a0, a1, a2, a3)
}

// axpy updates one destination row: d[j] += a·x[j] for every j < len(x).
// Bit-identical to axpyScalar.
func axpy(d, x []float32, a float32) {
	n := len(x)
	d = d[:n]
	if useVec && n >= vecLanes {
		axpyAVX(&d[0], &x[0], n, a)
		m := n &^ (vecLanes - 1)
		d, x = d[m:], x[m:]
	}
	axpyScalar(d, x, a)
}
