//go:build !amd64

package compute

// Clamp writes the ReLU of src into dst: max(0, v), additionally capped at
// ceil when ceil != 0 (ReLU6). dst may be the same slice as src. See
// clampScalar for −0, NaN and v == ceil.
func Clamp(dst, src []float32, ceil float32) { clampScalar(dst, src, ceil) }

// MaxPool2x2 writes one output row of 2×2/stride-2 max pooling: dst[j] is
// the maximum of row0[2j], row0[2j+1], row1[2j], row1[2j+1]. See
// maxPool2x2Scalar for NaN and equal maxima.
func MaxPool2x2(dst, row0, row1 []float32) { maxPool2x2Scalar(dst, row0, row1) }
