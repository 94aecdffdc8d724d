package compute

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// parallelCutoff is the fused-multiply-add count below which a kernel runs
// on its calling goroutine: tiny shapes lose more to fan-out overhead than
// they gain from extra workers.
const parallelCutoff = 1 << 14

// refBackend holds the direct-loop kernels. The parallel variants are
// bit-identical to their serial references: work is split on indices whose
// results are computed independently (matrix rows, output elements, output
// channels, batch samples), every output element sees exactly the serial
// accumulation order, and no partial-sum reduction ever crosses a goroutine
// boundary. Tests in parallel_test.go assert exact equality across worker
// counts.
type refBackend struct{}

// Name returns "ref".
func (refBackend) Name() string { return "ref" }

// MatMul computes C = A (m×k) * B (k×n) into a freshly allocated m×n
// tensor. Rows of C are computed independently, in parallel for large
// shapes (row-blocked over the worker pool).
func (refBackend) MatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := matMulDims(a, b)
	c := tensor.New(m, n)
	rows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := c.Data[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b.Data[p*n : (p+1)*n]
				for j := 0; j < n; j++ {
					crow[j] += av * brow[j]
				}
			}
		}
	}
	if m*k*n < parallelCutoff {
		rows(0, m)
	} else {
		parallel.For(m, 1, rows)
	}
	return c
}

// MatMulTransB computes C = A (m×k) * Bᵀ where B is n×k. This is the layout
// used by fully-connected layers, whose weights are stored out×in. Each
// output element is an independent dot product, parallelized over the
// flattened m×n output for large shapes.
func (refBackend) MatMulTransB(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := matMulTransBDims(a, b)
	c := tensor.New(m, n)
	cells := func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			i, j := idx/n, idx%n
			arow := a.Data[i*k : (i+1)*k]
			brow := b.Data[j*k : (j+1)*k]
			var sum float32
			for p := 0; p < k; p++ {
				sum += arow[p] * brow[p]
			}
			c.Data[idx] = sum
		}
	}
	if m*k*n < parallelCutoff {
		cells(0, m*n)
	} else {
		// Work-aware grain: a serving-shaped call (m = 1 sample, huge k,
		// a handful of output classes) has very few cells, each heavy — a
		// fixed grain of 16 would silently serialize it.
		parallel.For(m*n, parallel.Grain(k), cells)
	}
	return c
}

// Conv2D convolves input (N,C,H,W) with weights (F,C/groups,KH,KW) and an
// optional bias of length F, producing (N,F,OH,OW), by direct convolution.
func (refBackend) Conv2D(in, w, bias *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor {
	g := convGeometry(in, w, p)
	p = g.p
	n, c, h, wd := g.n, g.c, g.h, g.w
	f, cg, kh, kw := g.f, g.cg, g.kh, g.kw
	oh, ow := g.oh, g.ow
	out := tensor.New(n, f, oh, ow)
	fPerG := f / p.Groups
	// One work item per (batch sample, output channel) pair: each writes a
	// disjoint output plane, so the pairs parallelize with no coordination.
	plane := func(b, fo int) {
		grp := fo / fPerG
		var bv float32
		if bias != nil {
			bv = bias.Data[fo]
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := bv
				iy0 := oy*p.Stride - p.Padding
				ix0 := ox*p.Stride - p.Padding
				for ci := 0; ci < cg; ci++ {
					cin := grp*cg + ci
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						inBase := ((b*c+cin)*h + iy) * wd
						wBase := ((fo*cg+ci)*kh + ky) * kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= wd {
								continue
							}
							sum += in.Data[inBase+ix] * w.Data[wBase+kx]
						}
					}
				}
				out.Data[((b*f+fo)*oh+oy)*ow+ox] = sum
			}
		}
	}
	if n*f*oh*ow*cg*kh*kw < parallelCutoff {
		for b := 0; b < n; b++ {
			for fo := 0; fo < f; fo++ {
				plane(b, fo)
			}
		}
	} else {
		parallel.For(n*f, 1, func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				plane(idx/f, idx%f)
			}
		})
	}
	return out
}

// Conv2DBackward computes the gradients of a Conv2D call: dIn (same shape as
// in), dW (same shape as w), and dBias (length F, nil if bias was nil).
func (refBackend) Conv2DBackward(in, w *tensor.Tensor, hasBias bool, dOut *tensor.Tensor, p tensor.Conv2DParams) (dIn, dW, dBias *tensor.Tensor) {
	return refConvBackward(in, w, hasBias, dOut, p, true)
}

// Conv2DBackwardWeights is Conv2DBackward's dW and dBias alone.
func (refBackend) Conv2DBackwardWeights(in, w *tensor.Tensor, hasBias bool, dOut *tensor.Tensor, p tensor.Conv2DParams) (dW, dBias *tensor.Tensor) {
	_, dW, dBias = refConvBackward(in, w, hasBias, dOut, p, false)
	return dW, dBias
}

// refConvBackward runs Ref's backward pass as two sweeps over disjoint write
// sets: the weight sweep owns output channels (dW rows and dBias entries are
// indexed by fo), the input sweep, which only runs when wantIn, owns batch
// samples (dIn planes are indexed by b). Every element accumulates in the
// order of one fused (b, fo, oy, ox, ci, ky, kx) loop — b-major for a fixed
// fo, fo-major for a fixed b — skipping zero gradients and padding taps, so
// the result is the same bits whether the sweeps run serially on the
// calling goroutine (below parallelCutoff) or concurrently under
// parallel.Do, each fanned out, at any worker count. Partial sums never
// cross goroutines: chunk-local dW accumulators would be cheaper but their
// reduction order (hence the low-order float bits) would depend on the
// worker count, breaking the repository's determinism contract.
func refConvBackward(in, w *tensor.Tensor, hasBias bool, dOut *tensor.Tensor, p tensor.Conv2DParams, wantIn bool) (dIn, dW, dBias *tensor.Tensor) {
	g := convGeometry(in, w, p)
	p = g.p
	n, c, h, wd := g.n, g.c, g.h, g.w
	f, cg, kh, kw := g.f, g.cg, g.kh, g.kw
	oh, ow := dOut.Dim(2), dOut.Dim(3)
	dW = tensor.New(f, cg, kh, kw)
	if hasBias {
		dBias = tensor.New(f)
	}
	fPerG := f / p.Groups
	// plane visits the (oy, ox, ci, ky, kx) taps of filter fo on sample b
	// with a nonzero gradient, adding into dW and dBias or into dIn.
	plane := func(b, fo int, toW bool) {
		grp := fo / fPerG
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				gv := dOut.Data[((b*f+fo)*oh+oy)*ow+ox]
				if gv == 0 {
					continue
				}
				if toW && dBias != nil {
					dBias.Data[fo] += gv
				}
				iy0 := oy*p.Stride - p.Padding
				ix0 := ox*p.Stride - p.Padding
				for ci := 0; ci < cg; ci++ {
					cin := grp*cg + ci
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						inBase := ((b*c+cin)*h + iy) * wd
						wBase := ((fo*cg+ci)*kh + ky) * kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= wd {
								continue
							}
							if toW {
								dW.Data[wBase+kx] += gv * in.Data[inBase+ix]
							} else {
								dIn.Data[inBase+ix] += gv * w.Data[wBase+kx]
							}
						}
					}
				}
			}
		}
	}
	weights := func(lo, hi int) {
		for fo := lo; fo < hi; fo++ {
			for b := 0; b < n; b++ {
				plane(b, fo, true)
			}
		}
	}
	inputs := func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for fo := 0; fo < f; fo++ {
				plane(b, fo, false)
			}
		}
	}
	samples := 0
	if wantIn {
		dIn, samples = tensor.New(n, c, h, wd), n
	}
	if n*f*oh*ow*cg*kh*kw < parallelCutoff {
		weights(0, f)
		inputs(0, samples)
	} else {
		parallel.Do(func() { parallel.For(f, 1, weights) }, func() { parallel.For(samples, 1, inputs) })
	}
	return dIn, dW, dBias
}

// matMulDims validates MatMul operands and returns (m, k, n).
func matMulDims(a, b *tensor.Tensor) (m, k, n int) {
	if len(a.Shape()) != 2 || len(b.Shape()) != 2 {
		panic("compute: MatMul requires rank-2 operands")
	}
	m, k = a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("compute: MatMul inner dims %d != %d", k, k2))
	}
	return m, k, n
}

// matMulTransBDims validates MatMulTransB operands and returns (m, k, n).
func matMulTransBDims(a, b *tensor.Tensor) (m, k, n int) {
	m, k = a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("compute: MatMulTransB inner dims %d != %d", k, k2))
	}
	return m, k, n
}

// convGeom is the validated shape arithmetic shared by both backends' conv
// kernels.
type convGeom struct {
	p             tensor.Conv2DParams
	n, c, h, w    int
	f, cg, kh, kw int
	oh, ow        int
}

// convGeometry normalizes p's defaults, validates the channel/group layout
// and computes the output extents.
func convGeometry(in, w *tensor.Tensor, p tensor.Conv2DParams) convGeom {
	if p.Stride <= 0 {
		p.Stride = 1
	}
	if p.Groups <= 0 {
		p.Groups = 1
	}
	g := convGeom{
		p: p,
		n: in.Dim(0), c: in.Dim(1), h: in.Dim(2), w: in.Dim(3),
		f: w.Dim(0), cg: w.Dim(1), kh: w.Dim(2), kw: w.Dim(3),
	}
	if g.c/p.Groups != g.cg {
		panic(fmt.Sprintf("compute: Conv2D channel mismatch in=%d groups=%d wc=%d", g.c, p.Groups, g.cg))
	}
	g.oh = tensor.ConvOutDim(g.h, g.kh, p.Stride, p.Padding)
	g.ow = tensor.ConvOutDim(g.w, g.kw, p.Stride, p.Padding)
	return g
}
