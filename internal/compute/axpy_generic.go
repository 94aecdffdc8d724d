//go:build !amd64

package compute

// hasVec is false: this architecture has no assembly kernels. The scalar
// bodies are what the compiler vectorizes or fuses as it sees fit, which
// is also what Ref's loops get, so the backends stay bit-identical to each
// other per architecture.
const hasVec = false

func axpy4(d0, d1, d2, d3, x []float32, a0, a1, a2, a3 float32) {
	axpy4Scalar(d0, d1, d2, d3, x, a0, a1, a2, a3)
}

func axpy(d, x []float32, a float32) { axpyScalar(d, x, a) }
