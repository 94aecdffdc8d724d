package quant

import (
	"math"

	"repro/internal/cpufeat"
)

// The assembly kernels mix 256-bit float and integer instructions, so they
// run where cpufeat.Vec has AVX2 (which the probe only reports together
// with AVX and OS support for the YMM state).

// vecLanes is the number of 32-bit elements one YMM register holds; the
// assembly consumes whole groups of this many and leaves the rest.
const vecLanes = 8

// maxAbsAVX returns the largest |x[j]| over j in [0, n&^7), skipping NaNs.
//
//go:noescape
func maxAbsAVX(x *float32, n int) float32

// quantizeAVX2 encodes src[j] into dst[j] for j in [0, n&^7): VDIVPS, then
// truncate + exact remainder compare for the half-away rounding (never a
// reciprocal multiply, never the MXCSR's round-to-even), VCVTTPS2DQ — whose
// out-of-range answer is the MinInt32 the specification spells out — and
// integer clamps.
//
//go:noescape
func quantizeAVX2(dst *uint32, src *float32, n int, scale float32, lo, hi int32, mask uint32)

// dequantizeAVX2 decodes codes[j] into dst[j] for j in [0, n&^7): shift
// pair to sign-extend the low 32−shift bits, VCVTDQ2PS, one VMULPS.
//
//go:noescape
func dequantizeAVX2(dst *float32, codes *uint32, n int, scale float32, shift int)

// maxAbs is the largest |v| in x. Bit-identical to maxAbsScalar.
func maxAbs(x []float32) float32 {
	var m float32
	if n := len(x); cpufeat.Vec.HasAVX2 && n >= vecLanes {
		m = maxAbsAVX(&x[0], n)
		x = x[n&^(vecLanes-1):]
	}
	if t := maxAbsScalar(x); t > m {
		m = t
	}
	return m
}

// quantizeCodes encodes src into dst[:len(src)]. Bit-identical to
// quantizeScalar. Scales no calibrated tensor produces — zero (the max-abs
// was denormal and max-abs/hi underflowed), infinite or NaN (the tensor
// held ±Inf) — turn every quotient into NaN or ±Inf; those go to the
// scalar body whole, so the vector body's treatment of them is never what
// an artifact's bits rest on.
func quantizeCodes(dst []uint32, src []float32, scale float32, lo, hi int32, mask uint32) {
	n := len(src)
	dst = dst[:n]
	if cpufeat.Vec.HasAVX2 && n >= vecLanes && scale > 0 && scale <= math.MaxFloat32 {
		quantizeAVX2(&dst[0], &src[0], n, scale, lo, hi, mask)
		m := n &^ (vecLanes - 1)
		dst, src = dst[m:], src[m:]
	}
	quantizeScalar(dst, src, scale, lo, hi, mask)
}

// dequantizeCodes decodes codes into dst[:len(codes)]. Bit-identical to
// dequantizeScalar.
func dequantizeCodes(dst []float32, codes []uint32, scale float32, b int) {
	n := len(codes)
	dst = dst[:n]
	if cpufeat.Vec.HasAVX2 && n >= vecLanes {
		dequantizeAVX2(&dst[0], &codes[0], n, scale, 32-b)
		m := n &^ (vecLanes - 1)
		dst, codes = dst[m:], codes[m:]
	}
	dequantizeScalar(dst, codes, scale, b)
}
