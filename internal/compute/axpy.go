package compute

// The gemm backend's streaming inner loops are built on two vector
// primitives: axpy4 updates four destination rows from one shared source
// row (d_i[j] += a_i·x[j]) and axpy updates one. Every j is a distinct
// output element that sees exactly one rounded float32 multiply followed
// by one rounded float32 add, so a SIMD implementation that assigns
// elements to lanes — and never fuses the multiply into the add, and never
// reduces across lanes — produces the bits of the scalar loops below. Those
// loops are the specification: the amd64 assembly (axpy_amd64.s) is held to
// them bit for bit by axpy_test.go, and every other build runs them
// directly.
//
// What the primitives cannot serve is a sum split across lanes: a dot
// product whose k axis is the contiguous one (MatMulTransB's rows, Ref's
// loops) would have each lane carry a partial sum, which regroups the float
// additions and changes the bits. A reduction is fine as long as the vector
// axis runs over independent accumulators — the backward weight sweep is
// one: with the patch matrix staged patch-major, dW[fo, :] += gv·patch[m, :]
// is an axpy per output pixel, and every dW element still receives its
// contributions one at a time in Ref's order.

// vecLanes is the number of float32 elements one vector step covers (a YMM
// register on amd64): the assembly consumes whole groups of this many and
// leaves the rest to the scalar bodies, so kernels that choose their own
// row widths choose multiples of it.
const vecLanes = 8

// useVec selects the vector implementation where the build and the CPU
// have one. It is read-only outside tests, which flip it so the scalar
// bodies stay covered on hosts that would never run them.
var useVec = hasVec

// axpy4Scalar is the specification of axpy4. The destination rows must be
// at least as long as x.
func axpy4Scalar(d0, d1, d2, d3, x []float32, a0, a1, a2, a3 float32) {
	n := len(x)
	d0, d1, d2, d3 = d0[:n], d1[:n], d2[:n], d3[:n]
	for j, xv := range x {
		d0[j] += a0 * xv
		d1[j] += a1 * xv
		d2[j] += a2 * xv
		d3[j] += a3 * xv
	}
}

// axpyScalar is the specification of axpy. d must be at least as long as x.
func axpyScalar(d, x []float32, a float32) {
	d = d[:len(x)]
	for j, xv := range x {
		d[j] += a * xv
	}
}

// Axpy adds a·x to d element by element: d[j] += a·x[j] for every
// j < len(x), one rounded multiply and one rounded add each. d must be at
// least as long as x. It is the primitive the gemm kernels stream on,
// exported for dnn's per-row weight-gradient updates; bit-identical to the
// scalar loop whatever the build and the CPU.
func Axpy(d, x []float32, a float32) { axpy(d, x, a) }
