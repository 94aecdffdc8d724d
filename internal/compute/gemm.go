package compute

import (
	"sync/atomic"

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
					oxLo, oxHi := tapSpan(kx, wd, ow, stride, pad)
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

// tapSpan is the range of output columns whose tap kx reads inside an input
// row of wd elements: 0 <= ox*stride - pad + kx < wd. Both bounds clamp to
// [0, ow] — a tap deep in the padding band can push the raw bound past the
// row — and the range may be empty.
func tapSpan(kx, wd, ow, stride, pad int) (oxLo, oxHi int) {
	if pad > kx {
		oxLo = min((pad-kx+stride-1)/stride, ow)
	}
	if num := wd - 1 + pad - kx; num >= 0 {
		oxHi = min(ow, num/stride+1)
	}
	return oxLo, max(oxLo, oxHi)
}

// Conv2DBackward lowers the gradient computation through the same im2col
// machinery as the forward pass, as one fan-out of a share per worker over
// disjoint write sets. A share first accumulates the part of dW and dBias
// it owns, then claims samples of dIn one at a time until none are left —
// so the two sweeps need not be the same size for every core to stay busy,
// and no nested fan-out waits on a helper token its sibling still holds.
//
//   - dW is owned by column: contiguous ranges of the flattened (group,
//     k = (ci,ky,kx)) axis, vecLanes-aligned and as wide as the worker count
//     allows. A share stages, for every (sample, row block), only the patch
//     columns it owns — patch-major, so that dW[fo, cols] += gv·patch[m, cols]
//     is one axpy per output pixel with a nonzero gradient (a zero gradient
//     skips the call, as it skips the scalar in Ref). Across the shares
//     every patch value is staged exactly once per call, and nothing is
//     shared or waited for. The dW[fo, k] of different k are independent
//     accumulators, and each still receives its contributions one rounded
//     multiply and one rounded add at a time in Ref's (sample, output-pixel)
//     order, so dW is bit-identical to Ref however the columns are cut.
//     A share is at least two vectors wide, so that none is a sliver; a
//     narrow dW (a 3-channel 3×3 first layer: 27 columns) then has fewer
//     shares than a wide host has workers, and the rest go straight to dIn.
//     That balance was measured at one and two CPUs only.
//   - dBias is owned by filter and summed in Ref's order.
//   - dIn is owned by sample. Its sweep accumulates the patch-matrix
//     gradient dcol = Wᵀ·dOut (filters in ascending order) and scatters it
//     back through col2imAdd. This pre-reduction over filters regroups the
//     float sum, so dIn is NOT bit-identical to Ref — it is the one
//     deliberate relaxation in the backend's contract. It remains fully
//     deterministic: contributions accumulate in a fixed (filter, then
//     patch-row, then output-pixel) order per row block, and the row
//     blocking depends on the shape alone, so no worker count can perturb
//     it — which is what training reproducibility actually depends on.
//
// Sub-cutoff shapes keep Ref's fused serial sweep.
func (gemmBackend) Conv2DBackward(in, w *tensor.Tensor, hasBias bool, dOut *tensor.Tensor, p tensor.Conv2DParams) (dIn, dW, dBias *tensor.Tensor) {
	g := convGeometry(in, w, p)
	if g.n*g.f*g.oh*g.ow*g.cg*g.kh*g.kw < parallelCutoff {
		return Ref.Conv2DBackward(in, w, hasBias, dOut, g.p)
	}
	c := convBackward{
		convGeom: g, in: in, wt: w, dOut: dOut,
		dIn: tensor.New(g.n, g.c, g.h, g.w), dW: tensor.New(g.f, g.cg, g.kh, g.kw),
		fPerG: g.f / g.p.Groups, kTotal: g.cg * g.kh * g.kw,
	}
	if hasBias {
		c.dBias = tensor.New(g.f)
	}
	// The first owners shares (never more than wk) each own per columns of
	// dW and a matching slice of dBias.
	wk := parallel.Workers()
	cols := g.p.Groups * c.kTotal
	per := max(2*vecLanes, (cols+wk*vecLanes-1)/(wk*vecLanes)*vecLanes)
	owners := (cols + per - 1) / per
	var nextSample atomic.Int64
	parallel.ForEach(wk, func(i int) {
		if i < owners {
			c.weightColumns(i*per, min((i+1)*per, cols))
			if hasBias {
				c.bias(i*g.f/owners, (i+1)*g.f/owners)
			}
		}
		for b := int(nextSample.Add(1)) - 1; b < g.n; b = int(nextSample.Add(1)) - 1 {
			c.inputSample(b)
		}
	})
	return c.dIn, c.dW, c.dBias
}

// convBackward is one lowered Conv2DBackward call: the geometry, the
// operands, and the gradients its work items write disjoint parts of.
type convBackward struct {
	convGeom
	in, wt, dOut   *tensor.Tensor
	dIn, dW, dBias *tensor.Tensor
	fPerG, kTotal  int
}

// blockRows is how many output rows of rowElems patch values each keep a
// staged block within colBlockElems.
func (c *convBackward) blockRows(rowElems int) int {
	return min(c.oh, max(1, colBlockElems/max(1, rowElems)))
}

// patchTap is one column of the patch matrix: tap (ci, ky, kx) of a group
// reads off elements past in[chanBase + (oy·stride−pad)·w + ox·stride], for
// the output columns [oxLo, oxHi) of tapSpan and zero outside them.
type patchTap struct{ off, ky, oxLo, oxHi int }

// weightColumns accumulates dW[:, cLo:cHi), columns of the flattened
// (group, k) axis. Per group the range touches it resolves the owned taps
// once, then for every (sample, row block) stages those columns patch-major
// and runs each filter's gradient row down the block: one axpy into the
// filter's owned dW columns per nonzero gradient.
func (c *convBackward) weightColumns(cLo, cHi int) {
	maxWidth := min(cHi-cLo, c.kTotal)
	rowsPer := c.blockRows(maxWidth * c.ow)
	patch := slabF32.get(maxWidth * rowsPer * c.ow)
	defer slabF32.put(patch)
	taps := make([]patchTap, maxWidth)
	for grp := cLo / c.kTotal; grp*c.kTotal < cHi; grp++ {
		kLo := max(cLo-grp*c.kTotal, 0)
		kHi := min(cHi-grp*c.kTotal, c.kTotal)
		width := kHi - kLo
		for j := range taps[:width] {
			ci, ky, kx := (kLo+j)/(c.kh*c.kw), (kLo+j)/c.kw%c.kh, (kLo+j)%c.kw
			oxLo, oxHi := tapSpan(kx, c.w, c.ow, c.p.Stride, c.p.Padding)
			taps[j] = patchTap{(ci*c.h+ky)*c.w + kx - c.p.Padding, ky, oxLo, oxHi}
		}
		for b := 0; b < c.n; b++ {
			chanBase := (b*c.c + grp*c.cg) * c.h * c.w
			for oyLo := 0; oyLo < c.oh; oyLo += rowsPer {
				oyHi := min(oyLo+rowsPer, c.oh)
				mLen := (oyHi - oyLo) * c.ow
				rows := (*patch)[:mLen*width]
				im2colPatchMajor(rows, c.in.Data, chanBase, taps[:width], c.convGeom, oyLo, oyHi)
				for fo := grp * c.fPerG; fo < (grp+1)*c.fPerG; fo++ {
					gBase := ((b*c.f+fo)*c.oh + oyLo) * c.ow
					dwCols := c.dW.Data[fo*c.kTotal+kLo : fo*c.kTotal+kHi]
					for m, gv := range c.dOut.Data[gBase : gBase+mLen] {
						if gv != 0 {
							axpy(dwCols, rows[m*width:(m+1)*width], gv)
						}
					}
				}
			}
		}
	}
}

// im2colPatchMajor stages im2col's transpose for output rows [oyLo, oyHi)
// of one (sample, group) whose planes start at in[chanBase], restricted to
// the taps listed: dst[m·len(taps)+j] is the input value tap j of output
// pixel m reads, or zero where it falls in the padding. It walks one output
// row at a time, tap by tap, so a tap's reads are a run of one input row and
// the padding is a range, not a test per element. Every element is written,
// so the slab needs no clearing.
func im2colPatchMajor(dst, in []float32, chanBase int, taps []patchTap, g convGeom, oyLo, oyHi int) {
	width := len(taps)
	stride := g.p.Stride
	for oy := oyLo; oy < oyHi; oy++ {
		row := dst[(oy-oyLo)*g.ow*width : (oy-oyLo+1)*g.ow*width]
		iy0 := oy*stride - g.p.Padding
		for j, t := range taps {
			oxLo, oxHi := t.oxLo, t.oxHi
			if iy := iy0 + t.ky; iy < 0 || iy >= g.h {
				oxLo, oxHi = 0, 0
			}
			di := j
			for ox := 0; ox < oxLo; ox++ {
				row[di] = 0
				di += width
			}
			si := chanBase + iy0*g.w + t.off + oxLo*stride
			for ox := oxLo; ox < oxHi; ox++ {
				row[di] = in[si]
				di += width
				si += stride
			}
			for ox := oxHi; ox < g.ow; ox++ {
				row[di] = 0
				di += width
			}
		}
	}
}

// bias sums dBias[foLo:foHi) over every sample's gradient plane in Ref's
// (sample, output-pixel) order. Ref skips zero gradients; adding them is
// the same bits, since a sum that starts at +0 is never −0.
func (c *convBackward) bias(foLo, foHi int) {
	plane := c.oh * c.ow
	for fo := foLo; fo < foHi; fo++ {
		var s float32
		for b := 0; b < c.n; b++ {
			base := (b*c.f + fo) * plane
			for _, gv := range c.dOut.Data[base : base+plane] {
				s += gv
			}
		}
		c.dBias.Data[fo] = s
	}
}

// inputSample accumulates sample b's planes of dIn, one (group, row block)
// at a time: dcol = Wᵀ·dOut over the group's filters in ascending order,
// then the col2imAdd scatter.
func (c *convBackward) inputSample(b int) {
	rowsPer := c.blockRows(c.kTotal * c.ow)
	dcol := slabF32.get(c.kTotal * rowsPer * c.ow)
	defer slabF32.put(dcol)
	for grp := 0; grp < c.p.Groups; grp++ {
		for oyLo := 0; oyLo < c.oh; oyLo += rowsPer {
			oyHi := min(oyLo+rowsPer, c.oh)
			mLen := (oyHi - oyLo) * c.ow
			dcolData := (*dcol)[:c.kTotal*mLen]
			for i := range dcolData {
				dcolData[i] = 0
			}
			for fo := grp * c.fPerG; fo < (grp+1)*c.fPerG; fo++ {
				gBase := ((b*c.f+fo)*c.oh + oyLo) * c.ow
				gvRow := c.dOut.Data[gBase : gBase+mLen]
				wRow := c.wt.Data[fo*c.kTotal : (fo+1)*c.kTotal]
				for k, wv := range wRow {
					if wv == 0 {
						continue
					}
					// No per-gradient zero skip: dcol starts at +0 and
					// x + ±0 = x, so a zero gv is a bit-exact no-op.
					axpy(dcolData[k*mLen:(k+1)*mLen], gvRow, wv)
				}
			}
			col2imAdd(dcolData, c.dIn, b, grp*c.cg, c.cg, c.kh, c.kw, c.h, c.w, c.ow, oyLo, oyHi, c.p.Stride, c.p.Padding)
		}
	}
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
					oxLo, oxHi := tapSpan(kx, wd, ow, stride, pad)
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
