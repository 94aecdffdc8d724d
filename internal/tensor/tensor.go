// Package tensor provides the dense float32 tensors the DNN stack in
// internal/dnn is built on, plus the structural ops (pooling,
// concatenation, softmax) no compute backend specializes. The four
// compute kernels — convolution and matrix multiplication, forward and
// backward — live behind the pluggable Backend interface in
// internal/compute. Tensors are row-major and addressed with NCHW
// semantics where four dimensions are used.
package tensor

import (
	"fmt"
	"math"
)

// Shape describes the extent of each tensor dimension, outermost first.
type Shape []int

// Size returns the total number of elements implied by the shape.
func (s Shape) Size() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as, e.g., "(2, 3, 16, 16)".
func (s Shape) String() string {
	out := "("
	for i, d := range s {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprint(d)
	}
	return out + ")"
}

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// tensor; use New to allocate one with a shape.
type Tensor struct {
	shape Shape
	Data  []float32
}

// New allocates a zero-filled tensor with the given dimensions.
func New(dims ...int) *Tensor {
	s := Shape(dims)
	for _, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in %v", dims))
		}
	}
	return &Tensor{shape: s.Clone(), Data: make([]float32, s.Size())}
}

// FromSlice wraps data in a tensor of the given shape. The data is not
// copied; the caller must not reuse it. It panics if the element count
// does not match the shape.
func FromSlice(data []float32, dims ...int) *Tensor {
	s := Shape(dims)
	if s.Size() != len(data) {
		panic(fmt.Sprintf("tensor: %d elements do not fit shape %v", len(data), s))
	}
	return &Tensor{shape: s.Clone(), Data: data}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() Shape { return t.shape }

// Size returns the number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: t.shape.Clone(), Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data with a new shape. It panics if
// the element counts differ.
func (t *Tensor) Reshape(dims ...int) *Tensor {
	s := Shape(dims)
	if s.Size() != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, s))
	}
	return &Tensor{shape: s.Clone(), Data: t.Data}
}

// Repoint makes t a view of data with the given shape, reusing t's own
// shape storage — the allocation-free form of FromSlice for a header that
// is handed out again and again (dnn's fused executor keeps one per sample
// for its IFM hooks). A Shape() taken before the call is overwritten by it.
func (t *Tensor) Repoint(data []float32, dims ...int) {
	if Shape(dims).Size() != len(data) {
		panic(fmt.Sprintf("tensor: %d elements do not fit shape %v", len(data), Shape(dims)))
	}
	t.shape = append(t.shape[:0], dims...)
	t.Data = data
}

// At returns the element at the given NCHW-style multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddScaled accumulates alpha*src into t elementwise. Shapes must match in
// element count.
func (t *Tensor) AddScaled(src *Tensor, alpha float32) {
	if len(src.Data) != len(t.Data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range src.Data {
		t.Data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Stats returns the mean and population standard deviation of the elements.
func (t *Tensor) Stats() (mean, std float64) {
	if len(t.Data) == 0 {
		return 0, 0
	}
	for _, v := range t.Data {
		mean += float64(v)
	}
	mean /= float64(len(t.Data))
	for _, v := range t.Data {
		d := float64(v) - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(t.Data)))
	return mean, std
}

// ArgMax returns the index of the largest element. It returns -1 for an
// empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		return -1
	}
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}

// CountNonZero returns the number of elements that are not exactly zero.
func (t *Tensor) CountNonZero() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}
