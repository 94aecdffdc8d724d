// Package compute is the repository's pluggable compute-kernel layer. The
// four kernels every forward and backward pass bottoms out in — MatMul,
// MatMulTransB, Conv2D and Conv2DBackward — live behind the Backend
// interface, with three implementations:
//
//   - Ref: the direct loops (row-blocked MatMul, per-output-plane direct
//     convolution), the repository's original kernels and the semantic
//     reference every other backend is held to.
//   - Gemm: Conv2D (and, symmetrically, Conv2DBackward) lowered to a
//     patch-matrix GEMM, with per-goroutine pool-recycled scratch buffers
//     so the patch matrices allocate nothing in steady state. The serving
//     hot path runs here. Conv2D and batched MatMulTransB go through one
//     register-tiled micro-kernel, tile (4 filters × 16 columns, the sums
//     in registers for the whole k loop), and the streaming loops through
//     axpy (axpy.go): AVX assembly on amd64, the scalar loops that specify
//     it everywhere else.
//   - QGemm: the quantized int8 backend — operands are int8 codes, the
//     GEMM accumulates exactly in integers (the hot kernels pack two
//     outputs into the 32-bit lanes of one uint64 so each 64-bit multiply
//     advances two accumulations; see qgemm.go), and one rescale at the
//     end maps back to float32. It additionally implements QuantBackend,
//     consuming pre-quantized weight images (Int8Weights) straight from
//     quant.QTensor codes with no float round-trip.
//
// The float backends are bit-identical to Ref on finite inputs: blocking is
// only ever applied over independent output coordinates (matrix rows,
// output pixels), never over the shared reduction dimension, so each output
// element accumulates its k contributions in exactly the reference order
// and rounds identically. QGemm is the deliberate exception: its outputs
// carry symmetric-quantization error (~1/127 per operand) relative to Ref,
// but it keeps every determinism guarantee — bit-identical across worker
// counts, between fused-batch and per-sample paths, and between its float
// and pre-quantized entry points (see the contract on qgemmBackend).
// Gradients are relaxed the same way in one place only: the lowered
// Conv2DBackward pins dW and dBias to Ref's bits, while dIn accumulates in
// a fixed, worker-invariant order of its own (see gemmBackend's
// Conv2DBackward). Combined with the worker-count invariance of
// internal/parallel, a model produces the same bits on any given backend at
// any worker count — which is what lets a process pick its backend
// without perturbing the repository's determinism contract (seeded
// corruptor streams, pinned characterization outcomes, cached trained
// models).
//
// Beside the Backend kernels the package holds two elementwise primitives,
// Clamp (ReLU, ReLU6) and MaxPool2x2 (elemwise.go), which dnn's ReLU and
// MaxPool layers run whatever the backend: they only select among their
// inputs, so they round nothing and belong to no backend's numeric
// contract. Like tile and axpy they are a scalar Go specification with an
// AVX body on amd64.
//
// Backend selection: there is one process-wide switch. dnn's Conv and FC
// layers call Default() on every pass, and the cmd binaries set it once at
// start-up from their -backend flag through SetDefault. Tests that switch
// it restore the previous backend in t.Cleanup.
package compute

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/tensor"
)

// Backend implements the four compute kernels the DNN stack is built on.
// Implementations must be safe for concurrent use and bit-identical to
// themselves at every worker count; float backends are additionally held
// bit-identical to Ref on finite inputs (quantized backends document their
// numeric contract instead).
type Backend interface {
	// Name is the stable identifier used by -backend flags and the
	// serving API.
	Name() string
	// MatMul computes C = A (m×k) * B (k×n) into a fresh m×n tensor.
	MatMul(a, b *tensor.Tensor) *tensor.Tensor
	// MatMulTransB computes C = A (m×k) * Bᵀ where B is n×k, the layout
	// fully-connected layers store their weights in (out×in).
	MatMulTransB(a, b *tensor.Tensor) *tensor.Tensor
	// Conv2D convolves input (N,C,H,W) with weights (F,C/groups,KH,KW) and
	// an optional bias of length F, producing (N,F,OH,OW).
	Conv2D(in, w, bias *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor
	// Conv2DBackward computes the gradients of a Conv2D call: dIn (shaped
	// like in), dW (shaped like w) and dBias (length F, nil unless hasBias).
	Conv2DBackward(in, w *tensor.Tensor, hasBias bool, dOut *tensor.Tensor, p tensor.Conv2DParams) (dIn, dW, dBias *tensor.Tensor)
}

// Ref is the direct-loop reference backend.
var Ref Backend = refBackend{}

// Gemm is the patch-matrix GEMM backend; the default for inference hot paths.
var Gemm Backend = gemmBackend{}

var backends = map[string]Backend{
	Ref.Name():   Ref,
	Gemm.Name():  Gemm,
	QGemm.Name(): QGemm,
}

// defaultBackend holds the process-wide backend every layer runs on. Gemm:
// bit-identical to Ref and faster on every convolutional model.
var defaultBackend atomic.Pointer[Backend]

func init() { defaultBackend.Store(&Gemm) }

// Default returns the process-wide default backend.
func Default() Backend { return *defaultBackend.Load() }

// SetDefault installs b as the process-wide default (the cmd binaries plumb
// their -backend flag here). A nil b resets to Gemm. It returns the backend
// actually installed.
func SetDefault(b Backend) Backend {
	if b == nil {
		b = Gemm
	}
	defaultBackend.Store(&b)
	return b
}

// ByName resolves a backend by its flag name.
func ByName(name string) (Backend, error) {
	if b, ok := backends[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("compute: unknown backend %q (have %v)", name, Names())
}

// Names lists the registered backend names, sorted.
func Names() []string {
	out := make([]string, len(backends))
	i := 0
	for n := range backends {
		out[i] = n
		i++
	}
	sort.Strings(out)
	return out
}
