package compute

import (
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// gemmBackend lowers convolution to matrix multiplication: the output
// pixels of a (group, batch) form the columns of a patch matrix, taken a
// strip of tileCols columns at a time, and the filter rows multiply each
// strip through the register-tiled micro-kernel (tile, axpy.go). The patch
// matrix is never built: where the two halves of a strip are runs of the
// (zero-bordered) input, the kernel reads tap k at its offset from the
// strip's first pixel, and only the other strips are staged in a
// pool-recycled scratch slab. Blocking is applied over output elements
// only — never over the k reduction — so every output element accumulates
// its contributions in exactly the Ref order and the backend is
// bit-identical to Ref on finite inputs (pinned by the property tests in
// identity_test.go and the zoo-wide test in internal/dnn).
//
// The win over Ref's direct convolution is memory behaviour, not math: the
// branchy per-element bounds checks disappear into the zero border, a strip
// stays in L1 while every filter of the group sweeps it, and the sums of a
// tile live in registers from the first k to the last — sums of
// independent output elements, which is what lets tile and axpy run them
// eight lanes wide on amd64 without moving a bit.
type gemmBackend struct{}

// Name returns "gemm".
func (gemmBackend) Name() string { return "gemm" }

// minTileRows is the fewest rows MatMulTransB puts in a tile's lanes: half
// a strip (see there for the measurement).
const minTileRows = tileCols / 2

// colBlockElems bounds a staged backward patch block to ~128KB so it stays
// cache-resident while every filter of the group sweeps it.
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

// MatMulTransB computes C = A (m×k) * Bᵀ with B stored n×k. From half a
// tile's width of rows up (serving, training and evaluation batches) the
// batch row is the vector axis: A is transposed into strips of tileCols
// rows, k×tileCols each, and every four rows of B run the micro-kernel
// over a strip from +0, which is `var sum float32; sum += a·b` for each of
// the 64 elements at once; the Cᵀ tile is then scattered back. With fewer
// rows most lanes would be dead — measured on the zoo's FC shapes the tile
// loses below 3 to 6 rows and wins 1.6× to 2.5× at 8 — so they keep the
// scalar path, as does an empty reduction, which has nothing to stage: four
// adjacent output columns ride one pass over the shared A row, each with
// its own accumulator. Either way every element is fed in ascending-k
// order, the exact operation sequence Ref runs.
func (gemmBackend) MatMulTransB(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := matMulTransBDims(a, b)
	c := tensor.New(m, n)
	if m < minTileRows || k == 0 {
		matMulTransBRows(c, a, b, m, k, n)
		return c
	}
	strips := (m + tileCols - 1) / tileCols
	quads := (n + tileRows - 1) / tileRows
	slab := slabF32.get((strips*tileCols + tileRows) * k)
	defer slabF32.put(slab)
	panels, tail := (*slab)[:strips*tileCols*k], (*slab)[strips*tileCols*k:]
	for i := 0; i < strips*tileCols; i++ {
		col := panels[i/tileCols*tileCols*k+i%tileCols:]
		if i >= m {
			// Dead lanes of the last strip multiply zeros.
			for p := 0; p < k; p++ {
				col[p*tileCols] = 0
			}
			continue
		}
		for p, av := range a.Data[i*k : (i+1)*k] {
			col[p*tileCols] = av
		}
	}
	padTailRows(tail, b.Data, k, n)
	offs := slabI32.get(k)
	defer slabI32.put(offs)
	packedOffs(*offs)
	tiles := func(lo, hi int) {
		var zero [tileRows]float32
		for idx := lo; idx < hi; idx++ {
			s, j0 := idx/quads, idx%quads*tileRows
			wq := b.Data[j0*k:]
			if j0+tileRows > n {
				wq = tail
			}
			var acc [tileRows * tileCols]float32
			tile(&acc, &zero, wq, panels[s*tileCols*k:], *offs, vecLanes, k)
			for i := s * tileCols; i < min((s+1)*tileCols, m); i++ {
				for j := j0; j < min(j0+tileRows, n); j++ {
					c.Data[i*n+j] = acc[(j-j0)*tileCols+i%tileCols]
				}
			}
		}
	}
	if m*k*n < parallelCutoff {
		tiles(0, strips*quads)
	} else {
		parallel.For(strips*quads, parallel.Grain(tileRows*tileCols*k), tiles)
	}
	return c
}

// padTailRows copies the last rows%tileRows rows of w (k columns each) to
// the head of tail and zeroes the rest of its tileRows rows, so that the
// quad they form can be handed to tile like any other. A dead row's sums
// are computed and dropped.
func padTailRows(tail, w []float32, k, rows int) {
	live := rows % tileRows
	copy(tail, w[(rows-live)*k:rows*k])
	clear(tail[live*k : tileRows*k])
}

// groupTails is padTailRows for every group of a convolution's filters
// (fPerG rows of k each), tileRows·k apart in a slab the caller returns to
// slabF32; nil when the groups divide into whole quads.
func groupTails(w []float32, groups, fPerG, k int) *[]float32 {
	if fPerG%tileRows == 0 {
		return nil
	}
	tails := slabF32.get(groups * tileRows * k)
	for grp := 0; grp < groups; grp++ {
		padTailRows((*tails)[grp*tileRows*k:], w[grp*fPerG*k:], k, fPerG)
	}
	return tails
}

// matMulTransBRows is MatMulTransB one output element at a time.
func matMulTransBRows(c, a, b *tensor.Tensor, m, k, n int) {
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
}

// Conv2D lowers the convolution to a tiled matrix product. Per group the
// columns are the flattened (sample, oy, ox) output pixels, cut into strips
// of tileCols — so a 4×4 or 2×2 map fills a strip from neighbouring samples
// — and a work item is a run of (group, strip) pairs. A strip is K×tileCols
// with k = (ci·KH+ky)·KW+kx; every four filters of the group start a tile at
// their biases, run the micro-kernel down the strip in ascending-k order
// and copy the tile out. Padding becomes explicit zeros whose contributions
// are exact no-ops. At stride 1, pixel i of a run inside an output row reads
// tap k at (ci·hp+ky)·wp+kx+i of the zero-bordered planes, so a strip whose
// halves are two such runs of one sample — every strip of a 16- or 8-wide
// map, and of any map as wide as its padded input (a 1×1 kernel's) — is
// that table and is read in place. The rest are staged, one at a time.
func (gemmBackend) Conv2D(in, w, bias *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor {
	g := convGeometry(in, w, p)
	out := tensor.New(g.n, g.f, g.oh, g.ow)
	fPerG, kTotal := g.f/g.p.Groups, g.cg*g.kh*g.kw
	cols := g.n * g.oh * g.ow
	strips := (cols + tileCols - 1) / tileCols
	tails := groupTails(w.Data, g.p.Groups, fPerG, kTotal)
	if tails != nil {
		defer slabF32.put(tails)
	}
	// tile's two tables: a staged strip's rows, and the taps in hp×wp planes.
	hp, wp := g.h+2*g.p.Padding, g.w+2*g.p.Padding
	tables := slabI32.get(2 * kTotal)
	defer slabI32.put(tables)
	packed, taps := (*tables)[:kTotal], (*tables)[kTotal:]
	packedOffs(packed)
	for k := range taps {
		ci, ky, kx := k/(g.kh*g.kw), k/g.kw%g.kh, k%g.kw
		taps[k] = int32((ci*hp+ky)*wp + kx)
	}
	// A work item assembles the call's state on its own stack, so that the
	// closure is all the call allocates besides its output.
	work := func(lo, hi int) {
		c := convForward{
			convGeom: g, in: in.Data, wt: w.Data, out: out.Data,
			fPerG: fPerG, kTotal: kTotal, cols: cols, strips: strips,
			hp: hp, wp: wp, packed: packed, taps: taps,
		}
		if bias != nil {
			c.bias = bias.Data
		}
		if tails != nil {
			c.tails = *tails
		}
		c.run(lo, hi)
	}
	// Whether the call fans out is decided before anything is cut: below
	// the cutoff the whole column axis is one run, staged once.
	if items := g.p.Groups * strips; cols*g.f*kTotal < parallelCutoff {
		work(0, items)
	} else {
		parallel.For(items, parallel.Grain(fPerG*kTotal*tileCols), work)
	}
	return out
}

// convForward is one lowered Conv2D call: the geometry, the operands and
// what every work item derives from them.
type convForward struct {
	convGeom
	in, wt, bias, out []float32 // bias is nil without one
	fPerG, kTotal     int
	hp, wp            int       // extents of a zero-padded input plane
	cols, strips      int       // output pixels of the batch; strips of tileCols over them
	tails             []float32 // per group, its last fPerG%tileRows filters as a padded quad
	packed, taps      []int32   // tile's tables: of a staged strip, of the taps in the planes

	// A work item's scratch: a staged strip, and sample held's padded planes.
	panel, padded []float32
	held          int
}

// run computes the (group, strip) pairs lo … hi−1 of the flattened
// group-major index, in scratch of its own. The border of padded is cleared
// here and never written again.
func (c *convForward) run(lo, hi int) {
	padLen := 0
	if c.p.Padding > 0 {
		padLen = c.cg * c.hp * c.wp
	}
	slab := slabF32.get(c.kTotal*tileCols + padLen)
	defer slabF32.put(slab)
	c.panel, c.padded = (*slab)[:c.kTotal*tileCols], (*slab)[c.kTotal*tileCols:]
	clear(c.padded)
	for idx := lo; idx < hi; {
		grp, sLo := idx/c.strips, idx%c.strips
		sHi := min(c.strips, sLo+hi-idx)
		c.group(grp, sLo*tileCols, min(sHi*tileCols, c.cols))
		idx += sHi - sLo
	}
}

// group computes columns [colLo, colHi) of one group, colLo on a strip
// boundary.
func (c *convForward) group(grp, colLo, colHi int) {
	plane := c.oh * c.ow
	c.held = -1
	var acc [tileRows * tileCols]float32
	for col0 := colLo; col0 < colHi; col0 += tileCols {
		live := min(tileCols, colHi-col0)
		b0, pix0 := col0/plane, col0%plane
		src, offs, hiDelta := c.panel, c.packed, vecLanes
		lo, hi := c.runOf8(pix0), c.runOf8(pix0+vecLanes)
		if pix0+tileCols <= plane && lo >= 0 && hi >= 0 {
			// A whole strip of one sample, its halves two runs: read in place.
			src, offs, hiDelta = c.planes(b0, grp, colLo, colHi)[lo:], c.taps, hi-lo
		} else {
			// Stage the strip, one run of an output row at a time.
			for j := 0; j < live; {
				b, pix := (col0+j)/plane, (col0+j)%plane
				oy, ox := pix/c.ow, pix%c.ow
				cnt := min(c.ow-ox, live-j)
				c.stage(c.panel[j:], c.planes(b, grp, colLo, colHi), (oy*c.wp+ox)*c.p.Stride, cnt)
				j += cnt
			}
			// The dead lanes of a batch's last strip multiply zeros.
			for k := 0; k < c.kTotal && live < tileCols; k++ {
				clear(c.panel[k*tileCols+live : (k+1)*tileCols])
			}
		}
		// Every four filters of the group fill acc, a padded quad and the dead
		// lanes of the batch's last strip included, and the live part is
		// copied out one run of a sample's plane at a time.
		for fo := grp * c.fPerG; fo < (grp+1)*c.fPerG; fo += tileRows {
			nf := min(tileRows, (grp+1)*c.fPerG-fo)
			wq := c.wt[fo*c.kTotal:]
			if nf < tileRows {
				wq = c.tails[grp*tileRows*c.kTotal:]
			}
			var init [tileRows]float32 // a dead row's sum starts anywhere; +0 will do
			if c.bias != nil {
				copy(init[:], c.bias[fo:fo+nf])
			}
			tile(&acc, &init, wq, src, offs, hiDelta, c.kTotal)
			for j := 0; j < live; {
				b, pix := (col0+j)/plane, (col0+j)%plane
				cnt := min(plane-pix, live-j)
				for f := 0; f < nf; f++ {
					copy(c.out[(b*c.f+fo+f)*plane+pix:][:cnt], acc[f*tileCols+j:])
				}
				j += cnt
			}
		}
	}
}

// runOf8 returns where the zero-bordered plane holds what tap 0 reads for
// output pixel pix, or −1 unless the vecLanes pixels from pix on read a run
// of it: stride 1, and inside one output row or rows that abut.
func (c *convForward) runOf8(pix int) int {
	oy, ox := pix/c.ow, pix%c.ow
	if c.p.Stride != 1 || ox+vecLanes > c.ow && c.ow != c.wp {
		return -1
	}
	return oy*c.wp + ox
}

// planes returns the cg planes of sample b of group grp, hp×wp each with
// their padding: the input itself without any, else padded, refilled when b
// is not the sample it holds with the rows columns [colLo, colHi) read.
func (c *convForward) planes(b, grp, colLo, colHi int) []float32 {
	base := (b*c.c + grp*c.cg) * c.h * c.w
	if c.p.Padding == 0 {
		return c.in[base:]
	}
	if b != c.held {
		plane, stride := c.oh*c.ow, c.p.Stride
		oyLo := (max(colLo, b*plane) - b*plane) / c.ow
		oyHi := (min(colHi, (b+1)*plane) - 1 - b*plane) / c.ow
		c.padRows(c.padded, base, oyLo*stride, oyHi*stride+c.kh)
		c.held = b
	}
	return c.padded
}

// padRows copies rows [yLo, yHi) — in padded coordinates — of the cg input
// planes at in[base] into padded, inside its zero border.
func (c *convForward) padRows(padded []float32, base, yLo, yHi int) {
	pad := c.p.Padding
	yLo, yHi = max(yLo, pad), min(yHi, pad+c.h)
	for ci := 0; ci < c.cg; ci++ {
		for y := yLo; y < yHi; y++ {
			copy(padded[(ci*c.hp+y)*c.wp+pad:][:c.w], c.in[base+(ci*c.h+y-pad)*c.w:])
		}
	}
}

// stage fills columns [0, cnt) of the strip at panel: row k of the patch
// matrix holds, for cnt consecutive pixels of one output row, what tap
// k = (ci, ky, kx) reads — src[off + (ci·hp+ky)·wp + kx + i·stride] for
// pixel i, src being planes hp×wp that carry their own padding.
func (c *convForward) stage(panel, src []float32, off, cnt int) {
	k, stride := 0, c.p.Stride
	for ci := 0; ci < c.cg; ci++ {
		for ky := 0; ky < c.kh; ky++ {
			row := src[off+(ci*c.hp+ky)*c.wp:]
			for kx := 0; kx < c.kw; kx++ {
				dst := panel[k*tileCols:][:cnt]
				k++
				// The usual widths go through a local, which the compiler
				// moves inline: memmove costs more than it moves here.
				switch {
				case stride == 1 && cnt == tileCols:
					v := [tileCols]float32(row[kx:])
					*(*[tileCols]float32)(dst) = v
				case stride == 1 && cnt == vecLanes:
					v := [vecLanes]float32(row[kx:])
					*(*[vecLanes]float32)(dst) = v
				case stride == 1 && cnt == vecLanes/2:
					v := [vecLanes / 2]float32(row[kx:])
					*(*[vecLanes / 2]float32)(dst) = v
				default:
					for i := range dst {
						dst[i] = row[kx+i*stride]
					}
				}
			}
		}
	}
}

// Conv2DBackward lowers the gradient computation through the forward
// pass's patch matrix (im2col), as one fan-out of a share per worker over
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
