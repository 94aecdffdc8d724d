package compute

import "sync"

// slabPool recycles the scratch slabs of one element type. Kernels run once
// per layer per forward, so without recycling every convolution would
// allocate (and garbage-collect) a patch matrix per call — at serving rates
// that is the dominant allocation source after the activations themselves.
// A slab is checked out by exactly one goroutine between get and put, which
// makes the buffers per-goroutine by construction: parallel workers inside
// one Conv2D, and concurrent forwards of models served side by side, each
// draw their own slab and never share bytes.
type slabPool[T any] struct{ pool sync.Pool }

// get returns a slab with at least n usable elements. The contents are
// unspecified: callers must write every element they read (staging writes
// the whole patch strip, and Conv2D clears the zero border of its padded
// planes itself).
func (p *slabPool[T]) get(n int) *[]T {
	s, _ := p.pool.Get().(*[]T)
	if s == nil {
		s = new([]T)
	}
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return s
}

// put returns a slab to the pool. The slab must not be used after.
func (p *slabPool[T]) put(s *[]T) { p.pool.Put(s) }

// The Gemm backend stages patch matrices in float32 slabs; the
// integer backend stages quantized activations and patch matrices in int8
// slabs, accumulates into int32 slabs, and its packed dual-lane kernels (see
// qgemm.go) accumulate two unsigned 32-bit lanes per uint64.
var (
	slabF32 slabPool[float32]
	slabI8  slabPool[int8]
	slabI32 slabPool[int32]
	slabU64 slabPool[uint64]
)

// activations recycles the whole-batch activation slabs of dnn's fused
// executor. They have a pool of their own so that neither they nor the much
// larger patch matrices keep being regrown to the other's size.
var activations slabPool[float32]

// GetSlab lends a float32 slab of n elements with unspecified contents from
// the activation pool; PutSlab returns it, after which it must not be used.
func GetSlab(n int) *[]float32 { return activations.get(n) }

// PutSlab returns a slab obtained from GetSlab.
func PutSlab(s *[]float32) { activations.put(s) }
