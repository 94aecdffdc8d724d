package compute

// The gemm backend's inner loops are built on two vector primitives. tile
// computes a 4-row × 16-column block of a matrix product,
// acc[f, j] = init[f] + Σ_k w[f, k]·panel[k, j], holding the 64 sums in
// registers from the first k to the last and storing them once; it finds
// row k of the panel through a table of offsets into a source, so that a
// convolution's taps are read where the input already holds them; axpy
// streams one row, d[j] += a·x[j]. In both, every (f, j) or j is a distinct
// output element that sees, per k, exactly one rounded float32 multiply
// followed by one rounded float32 add, in ascending-k order. So a SIMD
// implementation that assigns elements to lanes — and never fuses the
// multiply into the add, and never reduces across lanes — produces the bits
// of the scalar loops below. Those loops are the specification: the amd64
// assembly (tile_amd64.s, axpy_amd64.s) is held to them bit for bit by
// axpy_test.go, and every other build runs them directly.
//
// What the primitives cannot serve is a sum split across lanes: a dot
// product whose k axis is the vector axis (one row of A against one row of
// B in MatMulTransB, Ref's loops) would have each lane carry a partial sum,
// which regroups the float additions and changes the bits. A reduction is
// fine as long as the vector axis runs over independent accumulators.
// Conv2D's is the output pixel; MatMulTransB's is the batch row, once there
// are enough rows to fill a tile's lanes; the backward weight sweep's is
// the dW column: with the patch matrix staged patch-major,
// dW[fo, :] += gv·patch[m, :] is an axpy per output pixel, and every dW
// element still receives its contributions one at a time in Ref's order.

// vecLanes is the number of float32 elements one vector step covers (a YMM
// register on amd64): the assembly consumes whole groups of this many and
// leaves the rest to the scalar bodies, so kernels that choose their own
// row widths choose multiples of it.
const vecLanes = 8

// A tile is tileRows rows of w against tileCols columns of a panel, the
// columns in two runs of vecLanes: eight YMM accumulators, which with two
// panel vectors, a broadcast weight and the products fills the sixteen
// registers AVX has.
const (
	tileRows = 4
	tileCols = 2 * vecLanes
)

// useVec selects the vector implementation where the build and the CPU
// have one. It is read-only outside tests, which flip it so the scalar
// bodies stay covered on hosts that would never run them.
var useVec = hasVec

// tileScalar is the specification of tile. Row p of the panel is sixteen
// values in two runs of eight: x[j] = src[offs[p]+j] for j < vecLanes and
// src[offs[p]+hiDelta+j−vecLanes] from there on. For f < tileRows and
// j < tileCols, acc[f·tileCols+j] is a sum that starts at init[f] and
// receives w[f·k+p]·x[j] for p = 0 … k−1 in that order, weight times value,
// then product plus accumulator. offs ascends.
func tileScalar(acc *[tileRows * tileCols]float32, init *[tileRows]float32, w, src []float32, offs []int32, hiDelta, k int) {
	for f, iv := range init {
		var sums [tileCols]float32
		for j := range sums {
			sums[j] = iv
		}
		for p, wv := range w[f*k : (f+1)*k] {
			lo := (*[vecLanes]float32)(src[offs[p]:])
			hi := (*[vecLanes]float32)(src[int(offs[p])+hiDelta:])
			for j := range lo {
				sums[j] += wv * lo[j]
				sums[vecLanes+j] += wv * hi[j]
			}
		}
		*(*[tileCols]float32)(acc[f*tileCols:]) = sums
	}
}

// packedOffs fills offs with the table of a staged panel, whose row p is the
// tileCols values at p·tileCols (hiDelta = vecLanes).
func packedOffs(offs []int32) {
	for p := range offs {
		offs[p] = int32(p * tileCols)
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
// least as long as x. It is the row primitive of the gemm kernels, exported
// for dnn's per-row updates (FC's weight gradient and bias add);
// bit-identical to the scalar loop whatever the build and the CPU.
func Axpy(d, x []float32, a float32) { axpy(d, x, a) }
