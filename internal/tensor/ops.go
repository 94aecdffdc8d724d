package tensor

import (
	"math"
)

// The compute kernels the DNN stack bottoms out in — MatMul, MatMulTransB,
// Conv2D and Conv2DBackward — live behind the Backend interface in
// internal/compute, so they can be swapped (direct loops vs im2col+GEMM
// lowering) without touching this package. This file keeps the shape
// arithmetic the backends share plus the structural ops (pooling,
// concatenation, softmax) that no backend specializes.

// Conv2DParams describes a 2-D convolution. Stride and padding are applied
// symmetrically in both spatial dimensions.
type Conv2DParams struct {
	Stride  int
	Padding int
	// Groups partitions input and output channels; Groups == InChannels
	// with one output channel per group yields a depthwise convolution.
	Groups int
}

// ConvOutDim returns the spatial output extent for an input extent in,
// kernel extent k, stride s, and padding p.
func ConvOutDim(in, k, s, p int) int {
	return (in+2*p-k)/s + 1
}

// MaxPool2D applies k×k max pooling with the given stride to (N,C,H,W),
// returning the pooled tensor and, for every output, the flat input index of
// its maximum (the argmax MaxPool2DBackward scatters gradients through).
func MaxPool2D(in *Tensor, k, stride int) (*Tensor, []int32) {
	n, c, h, w := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	out := New(n, c, (h-k)/stride+1, (w-k)/stride+1)
	arg := make([]int32, out.Size())
	MaxPool2DInto(out.Data, arg, in.Data, n*c, h, w, k, stride)
	return out, arg
}

// MaxPool2DInto pools `planes` consecutive h×w planes of src into dst, which
// must hold planes·oh·ow elements. Each output starts at −Inf and takes a
// tap only when it is strictly greater, walking the window row by row: a
// NaN never wins and the first of equal maxima does. arg, when non-nil,
// receives the index into src of every maximum (−1 for an all-NaN window);
// inference passes nil. dst may be src only for a 1×1 window.
func MaxPool2DInto(dst []float32, arg []int32, src []float32, planes, h, w, k, stride int) {
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	for p := 0; p < planes; p++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bestIdx := int32(-1)
				for ky := 0; ky < k; ky++ {
					row := (p*h + oy*stride + ky) * w
					for kx := 0; kx < k; kx++ {
						idx := row + ox*stride + kx
						if v := src[idx]; v > best {
							best = v
							bestIdx = int32(idx)
						}
					}
				}
				o := (p*oh+oy)*ow + ox
				dst[o] = best
				if arg != nil {
					arg[o] = bestIdx
				}
			}
		}
	}
}

// MaxPool2DBackward scatters dOut back through the argmax indices recorded
// by MaxPool2D, producing a gradient of shape inShape.
func MaxPool2DBackward(dOut *Tensor, arg []int32, inShape Shape) *Tensor {
	dIn := &Tensor{shape: inShape.Clone(), Data: make([]float32, inShape.Size())}
	for i, g := range dOut.Data {
		dIn.Data[arg[i]] += g
	}
	return dIn
}

// AvgPool2DGlobal averages each channel's spatial plane, producing (N,C,1,1).
func AvgPool2DGlobal(in *Tensor) *Tensor {
	n, c, h, w := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	out := New(n, c, 1, 1)
	area := float32(h * w)
	for b := 0; b < n; b++ {
		for ci := 0; ci < c; ci++ {
			var sum float32
			base := (b*c + ci) * h * w
			for i := 0; i < h*w; i++ {
				sum += in.Data[base+i]
			}
			out.Data[b*c+ci] = sum / area
		}
	}
	return out
}

// AvgPool2DGlobalBackward spreads dOut (N,C,1,1) uniformly over inShape.
func AvgPool2DGlobalBackward(dOut *Tensor, inShape Shape) *Tensor {
	n, c, h, w := inShape[0], inShape[1], inShape[2], inShape[3]
	dIn := New(n, c, h, w)
	inv := 1 / float32(h*w)
	for b := 0; b < n; b++ {
		for ci := 0; ci < c; ci++ {
			g := dOut.Data[b*c+ci] * inv
			base := (b*c + ci) * h * w
			for i := 0; i < h*w; i++ {
				dIn.Data[base+i] = g
			}
		}
	}
	return dIn
}

// Concat concatenates tensors along the channel axis (axis 1 of NCHW).
// All inputs must agree in N, H and W.
func Concat(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of no tensors")
	}
	n, h, w := ts[0].shape[0], ts[0].shape[2], ts[0].shape[3]
	totalC := 0
	for _, t := range ts {
		if t.shape[0] != n || t.shape[2] != h || t.shape[3] != w {
			panic("tensor: Concat shape mismatch")
		}
		totalC += t.shape[1]
	}
	out := New(n, totalC, h, w)
	plane := h * w
	for b := 0; b < n; b++ {
		coff := 0
		for _, t := range ts {
			c := t.shape[1]
			src := t.Data[b*c*plane : (b+1)*c*plane]
			dst := out.Data[(b*totalC+coff)*plane : (b*totalC+coff+c)*plane]
			copy(dst, src)
			coff += c
		}
	}
	return out
}

// SplitChannels splits dOut along the channel axis into pieces with the
// given channel counts, inverting Concat for backprop.
func SplitChannels(dOut *Tensor, channels []int) []*Tensor {
	n, totalC, h, w := dOut.shape[0], dOut.shape[1], dOut.shape[2], dOut.shape[3]
	plane := h * w
	outs := make([]*Tensor, len(channels))
	coff := 0
	for i, c := range channels {
		t := New(n, c, h, w)
		for b := 0; b < n; b++ {
			src := dOut.Data[(b*totalC+coff)*plane : (b*totalC+coff+c)*plane]
			copy(t.Data[b*c*plane:(b+1)*c*plane], src)
		}
		coff += c
		outs[i] = t
	}
	if coff != totalC {
		panic("tensor: SplitChannels channel counts do not sum to input channels")
	}
	return outs
}

// Softmax computes a numerically stable row-wise softmax of a rank-2 tensor.
func Softmax(in *Tensor) *Tensor {
	m, n := in.shape[0], in.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		row := in.Data[i*n : (i+1)*n]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		orow := out.Data[i*n : (i+1)*n]
		for j, v := range row {
			e := math.Exp(float64(v - max))
			orow[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}
