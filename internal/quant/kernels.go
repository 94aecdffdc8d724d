package quant

import "math"

// The integer codecs stream over three primitives: maxAbs finds the scale,
// quantizeCodes turns floats into codes and dequantizeCodes turns codes
// back into floats. Every element is independent (max is exact and
// order-free), so a SIMD implementation that assigns elements to lanes and
// performs the same correctly rounded operations — one float32 divide, an
// exact truncate, an exact remainder compare; one int→float convert, one
// float32 multiply — produces the bits of the scalar loops below. Those
// loops are the specification: the amd64 assembly (kernels_amd64.s) is held
// to them code for code and bit for bit by kernels_test.go, and every other
// build runs them directly.

// intIndefinite is the quotient bound of the encoder: a quotient that is
// NaN or not below 2^31 has no int32 value, and takes the lowest code (see
// encode).
const intIndefinite = float32(1 << 31)

// maxAbsScalar is the specification of maxAbs: the largest |v|, +0 for an
// empty slice. A NaN never compares greater, so NaNs are skipped and the
// result is never NaN; ±Inf is an ordinary maximum.
func maxAbsScalar(x []float32) float32 {
	var m float32
	for _, v := range x {
		if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > m {
			m = a
		}
	}
	return m
}

// encode is the single-value specification of quantization: v/scale rounded
// half away from zero and clamped to [lo, hi]. It is total. A NaN quotient
// (NaN input, 0/0, Inf/Inf) or one of 2^31 and above takes lo — the code
// amd64's float→int32 conversion ("integer indefinite", MinInt32, then the
// clamp) has always produced, written out here because Go leaves that
// conversion implementation-defined and other architectures answer 0 or
// MaxInt32. The conversions below only ever see values strictly inside
// (lo, hi) and (-2, 2). The remainder r = q−trunc(q) is exact and so is
// r+r, whose truncation is ±1 exactly when the half is reached: no float64
// detour is needed to round exactly, and no data-dependent branch to round
// fast.
func encode(v, scale float32, lo, hi int32) int32 {
	q := v / scale
	if !(q < intIndefinite) || q <= float32(lo) {
		return lo
	}
	if q >= float32(hi) {
		return hi
	}
	c := int32(q)
	r := q - float32(c)
	return c + int32(r+r)
}

// quantizeScalar is the specification of quantizeCodes: dst[i] holds the
// low bits (mask) of encode(src[i]). dst must be at least as long as src.
func quantizeScalar(dst []uint32, src []float32, scale float32, lo, hi int32, mask uint32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = uint32(encode(v, scale, lo, hi)) & mask
	}
}

// dequantizeScalar is the specification of dequantizeCodes: the low b bits
// of each code, sign-extended, times scale. dst must be at least as long
// as codes.
func dequantizeScalar(dst []float32, codes []uint32, scale float32, b int) {
	dst = dst[:len(codes)]
	for i, c := range codes {
		dst[i] = float32(signExtend(c, b)) * scale
	}
}
