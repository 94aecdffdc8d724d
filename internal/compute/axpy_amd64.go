package compute

import "repro/internal/cpufeat"

// hasVec reports whether the AVX kernels may run: the CPU implements AVX
// and the OS saves the YMM state across context switches.
var hasVec = cpufeat.X86.HasAVX

// tileAVX is tileScalar with the 4×16 block in eight YMM registers from
// the first k to the last: per k one offset read, two panel loads and, per
// row, one broadcast weight, VMULPS (weight first) then VADDPS (product
// first) — never a fused multiply-add. offs and hiDelta are in elements; k
// must be positive.
//
//go:noescape
func tileAVX(acc *[tileRows * tileCols]float32, init *[tileRows]float32, w, src *float32, offs *int32, hiDelta, k int)

// axpyAVX runs d[j] += a·x[j] for j in [0, n&^7) with VMULPS then VADDPS,
// eight elements per step. The pointers address rows of at least n
// elements.
//
//go:noescape
func axpyAVX(d, x *float32, n int, a float32)

// tile computes a tileRows × tileCols block of init + w·panel, the rows of
// w being k apart and row p of the panel the two runs of vecLanes values at
// src[offs[p]] and src[offs[p]+hiDelta], offs ascending. Bit-identical to
// tileScalar.
func tile(acc *[tileRows * tileCols]float32, init *[tileRows]float32, w, src []float32, offs []int32, hiDelta, k int) {
	if !useVec || k == 0 {
		tileScalar(acc, init, w, src, offs, hiDelta, k)
		return
	}
	// The assembly checks nothing: touch the ends of each operand.
	_ = w[tileRows*k-1]
	_ = src[int(offs[0])+min(hiDelta, 0)]
	_ = src[int(offs[k-1])+max(hiDelta, 0)+vecLanes-1]
	tileAVX(acc, init, &w[0], &src[0], &offs[0], hiDelta, k)
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
