package compute

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// gemmBackend lowers convolution to matrix multiplication: each
// (sample, group, output-row-block) stages an im2col patch matrix in a
// pool-recycled scratch slab and multiplies the filter rows against it
// with a streaming axpy. Blocking is applied over output rows/columns
// only — never over the k reduction — so every output element accumulates
// its contributions in exactly the Ref order and the backend is
// bit-identical to Ref on finite inputs (pinned by the property tests in
// identity_test.go and the zoo-wide test in internal/dnn).
//
// The win over Ref's direct convolution is memory behaviour, not math:
// the branchy per-element bounds checks disappear into the im2col fill,
// and the inner loops become long contiguous streams the hardware
// prefetcher can run ahead of — streams over independent output elements,
// which is what lets axpy4/axpy (axpy.go) run them eight lanes wide on
// amd64 without moving a bit.
type gemmBackend struct{}

// Name returns "gemm".
func (gemmBackend) Name() string { return "gemm" }

// colBlockElems bounds the im2col patch matrix to ~128KB so a row block
// stays cache-resident while every filter of the group sweeps it.
const colBlockElems = 32768

// MatMul computes C = A (m×k) * B (k×n), k-blocked: the B panel a block
// touches is reused across all rows of the chunk before the next panel
// streams in. Work fans out over rows when there are enough of them to feed
// the pool and over column blocks otherwise (the single-row products of
// FC backward passes used to serialize here). Per output element the
// contributions still arrive in ascending-k order with the same zero
// skips, so the result matches Ref bit for bit either way.
func (gemmBackend) MatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := matMulDims(a, b)
	c := tensor.New(m, n)
	const kBlock = 128
	block := func(iLo, iHi, jLo, jHi int) {
		for p0 := 0; p0 < k; p0 += kBlock {
			p1 := min(p0+kBlock, k)
			for i := iLo; i < iHi; i++ {
				arow := a.Data[i*k : (i+1)*k]
				crow := c.Data[i*n+jLo : i*n+jHi]
				for p := p0; p < p1; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					axpy(crow, b.Data[p*n+jLo:p*n+jHi], av)
				}
			}
		}
	}
	switch wk := parallel.Workers(); {
	case m*k*n < parallelCutoff:
		block(0, m, 0, n)
	case m >= wk:
		parallel.For(m, 1, func(lo, hi int) { block(lo, hi, 0, n) })
	default:
		// Fewer rows than workers: split the columns instead. Every output
		// element still runs its full ascending-k reduction inside one
		// goroutine, so the split is invisible to the bits.
		parallel.For(n, parallel.Grain(m*k), func(jLo, jHi int) { block(0, m, jLo, jHi) })
	}
	return c
}

// MatMulTransB computes C = A (m×k) * Bᵀ with B stored n×k. Four adjacent
// output columns ride one pass over the shared A row, quartering A
// traffic; each column keeps its own accumulator fed in ascending-k
// order, so every element is the exact operation sequence Ref runs.
func (gemmBackend) MatMulTransB(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := matMulTransBDims(a, b)
	c := tensor.New(m, n)
	quads := (n + 3) / 4
	cells := func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			i, q := idx/quads, idx%quads
			j := q * 4
			arow := a.Data[i*k : (i+1)*k]
			if j+4 <= n {
				b0 := b.Data[j*k : (j+1)*k]
				b1 := b.Data[(j+1)*k : (j+2)*k]
				b2 := b.Data[(j+2)*k : (j+3)*k]
				b3 := b.Data[(j+3)*k : (j+4)*k]
				var s0, s1, s2, s3 float32
				for p, av := range arow {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				c.Data[i*n+j] = s0
				c.Data[i*n+j+1] = s1
				c.Data[i*n+j+2] = s2
				c.Data[i*n+j+3] = s3
				continue
			}
			for ; j < n; j++ {
				brow := b.Data[j*k : (j+1)*k]
				var sum float32
				for p, av := range arow {
					sum += av * brow[p]
				}
				c.Data[i*n+j] = sum
			}
		}
	}
	if m*k*n < parallelCutoff {
		cells(0, m*quads)
	} else {
		// Grain derived from per-quad work: serving-shaped calls (one row,
		// huge k, a handful of quads) must still spread across the pool.
		parallel.For(m*quads, parallel.Grain(4*k), cells)
	}
	return c
}

// Conv2D lowers the convolution to im2col + GEMM. Work items are
// (sample, group, output-row-block) triples: each stages the block's
// K×(rows·OW) patch matrix in a recycled scratch slab — padding becomes
// explicit zeros whose contributions are exact no-ops — and then every
// filter of the group initializes its output row segment to the bias and
// streams the patch rows through an axpy in ascending-k order. 1×1
// stride-1 unpadded convolutions skip the staging entirely: the input
// planes already are the column matrix.
func (gemmBackend) Conv2D(in, w, bias *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor {
	g := convGeometry(in, w, p)
	p = g.p
	n, c, h, wd := g.n, g.c, g.h, g.w
	f, cg, kh, kw := g.f, g.cg, g.kh, g.kw
	oh, ow := g.oh, g.ow
	out := tensor.New(n, f, oh, ow)
	fPerG := f / p.Groups
	kTotal := cg * kh * kw
	direct11 := kh == 1 && kw == 1 && p.Stride == 1 && p.Padding == 0

	// Block output rows so the patch matrix stays cache-resident, then
	// shrink blocks if that leaves the worker pool idle — blocking is
	// performance-only, every element still sees its full k reduction.
	rowsPer := max(1, colBlockElems/max(1, kTotal*ow))
	items := n * p.Groups * ((oh + rowsPer - 1) / rowsPer)
	if wk := parallel.Workers(); items < wk && oh > 1 {
		rowsPer = max(1, oh/max(1, (wk+n*p.Groups-1)/(n*p.Groups)))
	}
	if rowsPer > oh {
		rowsPer = oh
	}
	blocks := (oh + rowsPer - 1) / rowsPer
	items = n * p.Groups * blocks

	work := func(lo, hi int) {
		var col *[]float32
		if !direct11 {
			col = slabF32.get(kTotal * rowsPer * ow)
			defer slabF32.put(col)
		}
		for idx := lo; idx < hi; idx++ {
			b := idx / (p.Groups * blocks)
			rem := idx % (p.Groups * blocks)
			grp := rem / blocks
			oyLo := (rem % blocks) * rowsPer
			oyHi := min(oyLo+rowsPer, oh)
			mLen := (oyHi - oyLo) * ow
			var colData []float32
			if !direct11 {
				colData = (*col)[:kTotal*mLen]
				im2col(colData, in, b, grp*cg, cg, kh, kw, h, wd, ow, oyLo, oyHi, p.Stride, p.Padding)
			}
			// colRowAt returns patch row k: a staged slab row, or the input
			// plane itself on the 1×1 fast path.
			colRowAt := func(k int) []float32 {
				if direct11 {
					cb := ((b*c+grp*cg+k)*h + oyLo) * wd
					return in.Data[cb : cb+mLen]
				}
				return colData[k*mLen : (k+1)*mLen]
			}
			dstAt := func(fo int) []float32 {
				base := ((b*f+fo)*oh + oyLo) * ow
				dst := out.Data[base : base+mLen]
				var bv float32
				if bias != nil {
					bv = bias.Data[fo]
				}
				for j := range dst {
					dst[j] = bv
				}
				return dst
			}
			// Register-block four filters against one pass over the patch
			// rows: each patch row is read once for four output rows,
			// quartering the dominant stream. Every output element still
			// accumulates its own sum in ascending-k order, so the blocking
			// is invisible to the bits.
			fo := grp * fPerG
			foEnd := (grp + 1) * fPerG
			for ; fo+4 <= foEnd; fo += 4 {
				d0, d1, d2, d3 := dstAt(fo), dstAt(fo+1), dstAt(fo+2), dstAt(fo+3)
				w0 := w.Data[fo*kTotal : (fo+1)*kTotal]
				w1 := w.Data[(fo+1)*kTotal : (fo+2)*kTotal]
				w2 := w.Data[(fo+2)*kTotal : (fo+3)*kTotal]
				w3 := w.Data[(fo+3)*kTotal : (fo+4)*kTotal]
				for k := 0; k < kTotal; k++ {
					axpy4(d0, d1, d2, d3, colRowAt(k), w0[k], w1[k], w2[k], w3[k])
				}
			}
			for ; fo < foEnd; fo++ {
				dst := dstAt(fo)
				wRow := w.Data[fo*kTotal : (fo+1)*kTotal]
				for k := 0; k < kTotal; k++ {
					axpy(dst, colRowAt(k), wRow[k])
				}
			}
		}
	}
	if n*f*oh*ow*cg*kh*kw < parallelCutoff {
		work(0, items)
	} else {
		parallel.For(items, 1, work)
	}
	return out
}

// im2col stages the patch matrix for output rows [oyLo, oyHi) of one
// (sample, group): row k = (ci·KH+ky)·KW+kx holds the input value each
// output pixel's (ci, ky, kx) tap reads, or zero where the tap falls in
// the padding. Every element is written, so the slab needs no clearing.
func im2col(col []float32, in *tensor.Tensor, b, cin0, cg, kh, kw, h, wd, ow, oyLo, oyHi, stride, pad int) {
	c := in.Dim(1)
	mLen := (oyHi - oyLo) * ow
	for ci := 0; ci < cg; ci++ {
		chanBase := (b*c + cin0 + ci) * h * wd
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				k := (ci*kh+ky)*kw + kx
				dst := col[k*mLen : (k+1)*mLen]
				di := 0
				for oy := oyLo; oy < oyHi; oy++ {
					row := dst[di : di+ow]
					di += ow
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for j := range row {
							row[j] = 0
						}
						continue
					}
					// In-bounds ox range: 0 <= ox*stride - pad + kx < wd.
					// Both bounds clamp to [0, ow]: a tap deep in the
					// padding band can push the raw bound past the row.
					oxLo := 0
					if pad > kx {
						oxLo = min((pad-kx+stride-1)/stride, ow)
					}
					oxHi := 0
					if num := wd - 1 + pad - kx; num >= 0 {
						oxHi = min(ow, num/stride+1)
					}
					if oxHi < oxLo {
						oxHi = oxLo
					}
					for j := 0; j < oxLo; j++ {
						row[j] = 0
					}
					if oxHi > oxLo {
						rowBase := chanBase + iy*wd
						if stride == 1 {
							ix := oxLo - pad + kx
							copy(row[oxLo:oxHi], in.Data[rowBase+ix:rowBase+ix+(oxHi-oxLo)])
						} else {
							ix := oxLo*stride - pad + kx
							for j := oxLo; j < oxHi; j++ {
								row[j] = in.Data[rowBase+ix]
								ix += stride
							}
						}
					}
					for j := oxHi; j < ow; j++ {
						row[j] = 0
					}
				}
			}
		}
	}
}

// Conv2DBackward lowers the gradient computation through the same im2col
// machinery as the forward pass, in two concurrent sweeps over disjoint
// write sets (mirroring Ref's parallel decomposition):
//
//   - The weight sweep owns ranges of output channels. For each sample it
//     stages the sample's patch matrix once (shared by every owned filter)
//     and accumulates dW[fo] and dBias[fo] as streaming dot products
//     against the filter's gradient row. Every dW/dBias element sees its
//     contributions in exactly Ref's (sample, output-pixel) order — partial
//     sums are carried in registers, never reduced across blocks — so both
//     stay bit-identical to Ref at every worker count.
//   - The input sweep owns samples. It accumulates the patch-matrix
//     gradient dcol = Wᵀ·dOut (filters in ascending order) and scatters it
//     back through col2imAdd. This pre-reduction over filters regroups the
//     float sum, so dIn is NOT bit-identical to Ref — it is the one
//     deliberate relaxation in the backend's contract. It remains fully
//     deterministic: contributions accumulate in a fixed (filter, then
//     patch-row, then output-pixel) order that no worker count can perturb,
//     which is what training reproducibility actually depends on.
//
// The win is the same as the forward lowering's: the branchy per-tap bounds
// checks collapse into the staging/scatter fills, and the hot loops become
// long contiguous streams. Sub-cutoff shapes keep Ref's fused serial sweep.
func (gemmBackend) Conv2DBackward(in, w *tensor.Tensor, hasBias bool, dOut *tensor.Tensor, p tensor.Conv2DParams) (dIn, dW, dBias *tensor.Tensor) {
	g := convGeometry(in, w, p)
	p = g.p
	n, c, h, wd := g.n, g.c, g.h, g.w
	f, cg, kh, kw := g.f, g.cg, g.kh, g.kw
	oh, ow := dOut.Dim(2), dOut.Dim(3)
	if n*f*oh*ow*cg*kh*kw < parallelCutoff {
		return Ref.Conv2DBackward(in, w, hasBias, dOut, p)
	}
	dIn = tensor.New(n, c, h, wd)
	dW = tensor.New(f, cg, kh, kw)
	if hasBias {
		dBias = tensor.New(f)
	}
	fPerG := f / p.Groups
	kTotal := cg * kh * kw
	rowsPer := max(1, colBlockElems/max(1, kTotal*ow))
	if rowsPer > oh {
		rowsPer = oh
	}
	blocks := (oh + rowsPer - 1) / rowsPer

	weightSweep := func() {
		parallel.For(f, 1, func(foLo, foHi int) {
			col := slabF32.get(kTotal * rowsPer * ow)
			defer slabF32.put(col)
			for b := 0; b < n; b++ {
				for grp := foLo / fPerG; grp <= (foHi-1)/fPerG; grp++ {
					lo := max(foLo, grp*fPerG)
					hi := min(foHi, (grp+1)*fPerG)
					for blk := 0; blk < blocks; blk++ {
						oyLo := blk * rowsPer
						oyHi := min(oyLo+rowsPer, oh)
						mLen := (oyHi - oyLo) * ow
						colData := (*col)[:kTotal*mLen]
						im2col(colData, in, b, grp*cg, cg, kh, kw, h, wd, ow, oyLo, oyHi, p.Stride, p.Padding)
						for fo := lo; fo < hi; fo++ {
							gBase := ((b*f+fo)*oh + oyLo) * ow
							gvRow := dOut.Data[gBase : gBase+mLen]
							if dBias != nil {
								s := dBias.Data[fo]
								for _, gv := range gvRow {
									s += gv
								}
								dBias.Data[fo] = s
							}
							// Four patch rows ride one pass over the gradient
							// row; each dW element keeps its own register
							// accumulator seeded from (and stored back to) its
							// slot, so the element's float op sequence is
							// exactly Ref's. Zero gradients skip, as in Ref.
							dwRow := dW.Data[fo*kTotal : (fo+1)*kTotal]
							k := 0
							for ; k+4 <= kTotal; k += 4 {
								c0 := colData[k*mLen : (k+1)*mLen]
								c1 := colData[(k+1)*mLen : (k+2)*mLen]
								c2 := colData[(k+2)*mLen : (k+3)*mLen]
								c3 := colData[(k+3)*mLen : (k+4)*mLen]
								s0, s1, s2, s3 := dwRow[k], dwRow[k+1], dwRow[k+2], dwRow[k+3]
								for m, gv := range gvRow {
									if gv == 0 {
										continue
									}
									s0 += gv * c0[m]
									s1 += gv * c1[m]
									s2 += gv * c2[m]
									s3 += gv * c3[m]
								}
								dwRow[k], dwRow[k+1], dwRow[k+2], dwRow[k+3] = s0, s1, s2, s3
							}
							for ; k < kTotal; k++ {
								ck := colData[k*mLen : (k+1)*mLen]
								s := dwRow[k]
								for m, gv := range gvRow {
									if gv == 0 {
										continue
									}
									s += gv * ck[m]
								}
								dwRow[k] = s
							}
						}
					}
				}
			}
		})
	}
	inputSweep := func() {
		parallel.For(n, 1, func(bLo, bHi int) {
			dcol := slabF32.get(kTotal * rowsPer * ow)
			defer slabF32.put(dcol)
			for b := bLo; b < bHi; b++ {
				for grp := 0; grp < p.Groups; grp++ {
					for blk := 0; blk < blocks; blk++ {
						oyLo := blk * rowsPer
						oyHi := min(oyLo+rowsPer, oh)
						mLen := (oyHi - oyLo) * ow
						dcolData := (*dcol)[:kTotal*mLen]
						for i := range dcolData {
							dcolData[i] = 0
						}
						for fo := grp * fPerG; fo < (grp+1)*fPerG; fo++ {
							gBase := ((b*f+fo)*oh + oyLo) * ow
							gvRow := dOut.Data[gBase : gBase+mLen]
							wRow := w.Data[fo*kTotal : (fo+1)*kTotal]
							for k := 0; k < kTotal; k++ {
								wv := wRow[k]
								if wv == 0 {
									continue
								}
								// No per-gradient zero skip: dcol starts at +0 and
								// x + ±0 = x, so a zero gv is a bit-exact no-op.
								axpy(dcolData[k*mLen:(k+1)*mLen], gvRow, wv)
							}
						}
						col2imAdd(dcolData, dIn, b, grp*cg, cg, kh, kw, h, wd, ow, oyLo, oyHi, p.Stride, p.Padding)
					}
				}
			}
		})
	}
	parallel.Do(weightSweep, inputSweep)
	return dIn, dW, dBias
}

// col2imAdd is im2col's adjoint: it scatters a patch-matrix gradient back
// into one sample's dIn planes, adding each patch-row entry to the input
// element its tap read. Padding taps have no source element and are
// skipped. The scatter runs in fixed (patch-row, then output-pixel) order;
// rows of different samples are disjoint, which is what lets the input
// sweep parallelize over samples.
func col2imAdd(dcol []float32, dIn *tensor.Tensor, b, cin0, cg, kh, kw, h, wd, ow, oyLo, oyHi, stride, pad int) {
	c := dIn.Dim(1)
	mLen := (oyHi - oyLo) * ow
	for ci := 0; ci < cg; ci++ {
		chanBase := (b*c + cin0 + ci) * h * wd
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				k := (ci*kh+ky)*kw + kx
				src := dcol[k*mLen : (k+1)*mLen]
				si := 0
				for oy := oyLo; oy < oyHi; oy++ {
					row := src[si : si+ow]
					si += ow
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					oxLo := 0
					if pad > kx {
						oxLo = min((pad-kx+stride-1)/stride, ow)
					}
					oxHi := 0
					if num := wd - 1 + pad - kx; num >= 0 {
						oxHi = min(ow, num/stride+1)
					}
					if oxHi < oxLo {
						oxHi = oxLo
					}
					rowBase := chanBase + iy*wd
					if stride == 1 {
						ix := oxLo - pad + kx
						dst := dIn.Data[rowBase+ix : rowBase+ix+(oxHi-oxLo)]
						for j, v := range row[oxLo:oxHi] {
							dst[j] += v
						}
					} else {
						ix := oxLo*stride - pad + kx
						for j := oxLo; j < oxHi; j++ {
							dIn.Data[rowBase+ix] += row[j]
							ix += stride
						}
					}
				}
			}
		}
	}
}
