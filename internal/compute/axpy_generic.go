//go:build !amd64

package compute

// This architecture has no assembly kernels. The scalar bodies are what
// the compiler vectorizes or fuses as it sees fit, which is also what Ref's
// loops get, so the backends stay bit-identical to each other per
// architecture.

func tile(acc *[tileRows * tileCols]float32, init *[tileRows]float32, w, src []float32, offs []int32, hiDelta, k int) {
	tileScalar(acc, init, w, src, offs, hiDelta, k)
}

func axpy(d, x []float32, a float32) { axpyScalar(d, x, a) }
