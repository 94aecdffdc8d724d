package compute

import "math"

// The inference path's non-GEMM layers run on two exact primitives in the
// axpy pattern (axpy.go): the scalar Go bodies below are the specification,
// the amd64 assembly (elemwise_amd64.s) is held to them bit for bit by
// elemwise_test.go, and every other build runs them directly. Neither
// primitive rounds — both only select among their inputs — so the only
// freedom a vector body has is which of two equal-comparing values (+0 and
// −0) or which side of an unordered compare (NaN) it returns, and the
// specifications pin exactly that.

var negInf = float32(math.Inf(-1))

// clampScalar is the specification of Clamp, and the loop dnn.ReLU has
// always run: v passes when 0 < v (and v < ceil when ceil != 0); anything
// else at or below zero becomes +0 (−0 included), and the rest — values at
// or above the ceiling, and NaN, which fails every compare — becomes ceil
// (0 for a plain ReLU). dst must be at least as long as src and may be the
// same slice.
func clampScalar(dst, src []float32, ceil float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		switch {
		case v > 0 && (ceil == 0 || v < ceil):
			dst[i] = v
		case v <= 0:
			dst[i] = 0
		default:
			dst[i] = ceil
		}
	}
}

// maxPool2x2Scalar is the specification of MaxPool2x2: output j is the
// maximum of the 2×2 window row0[2j], row0[2j+1], row1[2j], row1[2j+1],
// taken the way tensor.MaxPool2DInto takes it — a strict > from −Inf in
// exactly that tap order. So a NaN never wins, an all-NaN window yields
// −Inf, and the first of equal maxima wins, which decides the sign of a
// zero. The rows must hold at least 2·len(dst) elements.
func maxPool2x2Scalar(dst, row0, row1 []float32) {
	row0, row1 = row0[:2*len(dst)], row1[:2*len(dst)]
	for j := range dst {
		best := negInf
		if v := row0[2*j]; v > best {
			best = v
		}
		if v := row0[2*j+1]; v > best {
			best = v
		}
		if v := row1[2*j]; v > best {
			best = v
		}
		if v := row1[2*j+1]; v > best {
			best = v
		}
		dst[j] = best
	}
}
