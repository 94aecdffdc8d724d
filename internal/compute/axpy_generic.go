//go:build !amd64

package compute

// hasVec is false: this architecture has no assembly kernels. The scalar
// bodies are what the compiler vectorizes or fuses as it sees fit, which
// is also what Ref's loops get, so the backends stay bit-identical to each
// other per architecture.
const hasVec = false

func tile(dst []float32, dstStride int, init *[tileRows]float32, w []float32, wStride int, panel []float32, panelStride, k int) {
	tileScalar(dst, dstStride, init, w, wStride, panel, panelStride, k)
}

func axpy(d, x []float32, a float32) { axpyScalar(d, x, a) }
