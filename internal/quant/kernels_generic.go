//go:build !amd64

package quant

// This architecture has no assembly kernels and runs the scalar bodies,
// which are total (see encode), so its codes match amd64's.

func maxAbs(x []float32) float32 { return maxAbsScalar(x) }

func quantizeCodes(dst []uint32, src []float32, scale float32, lo, hi int32, mask uint32) {
	quantizeScalar(dst, src, scale, lo, hi, mask)
}

func dequantizeCodes(dst []float32, codes []uint32, scale float32, b int) {
	dequantizeScalar(dst, codes, scale, b)
}
