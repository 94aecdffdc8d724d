package compute

import "math"

// reluAVX runs dst[i] = max(src[i], +0) for i in [0, n&^7), eight elements
// per step, with +0 as VMAXPS's second source — the operand x86 returns on
// a NaN and on a ±0 tie — so NaN and −0 both become +0.
//
//go:noescape
func reluAVX(dst, src *float32, n int)

// clampAVX is reluAVX preceded by a VMINPS against ceil, ceil second: NaN,
// +Inf and v == ceil all become ceil before the max. Requires ceil > 0.
//
//go:noescape
func clampAVX(dst, src *float32, n int, ceil float32)

// maxPool2x2AVX writes outputs [0, n&^7) of maxPool2x2Scalar, eight per
// step: each row is split into its even and odd taps, folded into a −Inf
// accumulator in tap order with the accumulator as VMAXPS's second source
// (so it survives NaNs and ties), and the two row maxima are then combined
// with row 0's as the second source.
//
//go:noescape
func maxPool2x2AVX(dst, row0, row1 *float32, n int)

// Clamp writes the ReLU of src into dst: max(0, v), additionally capped at
// ceil when ceil != 0 (ReLU6). dst must be at least as long as src and may
// be the same slice. Bit-identical to clampScalar, which defines what
// happens to −0, NaN and v == ceil.
func Clamp(dst, src []float32, ceil float32) {
	n := len(src)
	dst = dst[:n]
	// The vector bodies reproduce the specification for +0 and positive
	// ceilings; a negative, −0 or NaN ceiling (no layer has one) takes the
	// scalar body whole.
	if useVec && n >= vecLanes && (ceil > 0 || math.Float32bits(ceil) == 0) {
		if ceil == 0 {
			reluAVX(&dst[0], &src[0], n)
		} else {
			clampAVX(&dst[0], &src[0], n, ceil)
		}
		m := n &^ (vecLanes - 1)
		dst, src = dst[m:], src[m:]
	}
	clampScalar(dst, src, ceil)
}

// MaxPool2x2 writes one output row of 2×2/stride-2 max pooling: dst[j] is
// the maximum of row0[2j], row0[2j+1], row1[2j], row1[2j+1]. The rows must
// hold at least 2·len(dst) elements. Bit-identical to maxPool2x2Scalar,
// which defines what happens to NaN and to equal maxima.
func MaxPool2x2(dst, row0, row1 []float32) {
	n := len(dst)
	row0, row1 = row0[:2*n], row1[:2*n]
	if useVec && n >= vecLanes {
		maxPool2x2AVX(&dst[0], &row0[0], &row1[0], n)
		m := n &^ (vecLanes - 1)
		dst, row0, row1 = dst[m:], row0[2*m:], row1[2*m:]
	}
	maxPool2x2Scalar(dst, row0, row1)
}
