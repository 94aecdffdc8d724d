package compute

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// qgemmBackend computes directly on quantized operands: activations are
// quantized to int8 on entry (per sample for convolutions, per row for
// matrix products), weights arrive as — or are folded to — per-tensor
// symmetric int8 codes, the GEMM accumulates exactly in integers, and a
// single rescale at the end maps the integer result back to float32. This is
// the compute regime the paper deploys (§2.1): weights and feature maps live
// in (approximate) DRAM as int8 codes, so the kernel consumes the codes as
// stored instead of round-tripping every operand through float32.
//
// The hot kernels accumulate two outputs per hardware multiply: codes are
// biased to unsigned (x+128 ∈ [0,255]), two output channels are packed into
// the 32-bit lanes of one uint64, and one 64-bit multiply by a shared biased
// operand advances both lanes at once — scalar Go's answer to the single
// integer-multiply port that would otherwise leave the int8 path behind the
// two-pipe float backends. The bias terms are subtracted exactly on store
// using precomputed code sums (Σ(a+128)(b+128) = Σab + 128Σa + 128Σb +
// 128²k), so the packed kernels return bit-for-bit the same outputs as the
// plain int32 reference formulation.
//
// Numeric contract — deliberately different from ref/gemm. The float
// backends are bit-identical to Ref; qgemm is not: its outputs carry
// symmetric-quantization error (on the order of 1/127 per operand, so
// roughly 1–2% relative on typical layers). What it does keep, and what the
// property tests in qgemm_test.go pin, is every determinism guarantee the
// repository relies on:
//
//   - bit-identical across worker counts (int32 accumulation is exact, and
//     work splits only over independent output coordinates);
//   - bit-identical between the fused-batch and per-sample paths
//     (activation scales are computed per sample/row, never across the
//     batch, so a sample's result depends only on that sample's bytes);
//   - bit-identical between the plain float entry points and the
//     QuantBackend entry points fed by quant.QTensor codes (both use the
//     quant.Quantize rounding).
//
// Conv2DBackward delegates to Gemm: training gradients are defined on the
// float linearization of the network (a straight-through estimator —
// differentiating through the quantizer's staircase would yield zero almost
// everywhere), and boosting/retraining wants the lowered float backward.
type qgemmBackend struct{}

// QGemm is the quantized int8 backend.
var QGemm Backend = qgemmBackend{}

// Name returns "qgemm".
func (qgemmBackend) Name() string { return "qgemm" }

// Int8Weights is a weight tensor in the integer kernels' native format:
// per-tensor symmetric int8 codes plus the dequantization scale. Serving
// builds these once per deployed model straight from the (corrupted)
// quant.QTensor codes — see dnn.Int8WeightsFromQTensor — so the hot path
// never rebuilds a float weight tensor.
type Int8Weights struct {
	Data  []int8
	Scale float32
	Shape tensor.Shape
	// RowSums caches the per-output-channel code sums (one Σcodes per
	// leading-dimension row: per filter for conv weights, per output column
	// for FC weights). The packed dual-lane kernels need them to subtract
	// the unsigned-bias terms on store; builders fill them in so the hot
	// path never rescans the codes. nil is valid — kernels recompute into
	// scratch when absent.
	RowSums []int32
}

// QuantizeInt8 folds a float tensor to the Int8Weights format using the
// exact quant.Quantize rounding (round-half-away, clamp to [-128, 127],
// scale = max|x|/127), so an image built here is code-for-code identical to
// decoding a quant.QTensor of the same tensor.
func QuantizeInt8(w *tensor.Tensor) *Int8Weights {
	iw := &Int8Weights{Data: make([]int8, w.Size()), Scale: sliceScaleI8(w.Data), Shape: w.Shape().Clone()}
	quantizeI8(iw.Data, w.Data, iw.Scale)
	if rows := iw.Shape[0]; rows > 0 {
		iw.RowSums = make([]int32, rows)
		codeRowSums(iw.Data, rows, len(iw.Data)/rows, iw.RowSums)
	}
	return iw
}

// codeRowSums fills dst with per-row sums of a rows×k int8 code matrix.
func codeRowSums(codes []int8, rows, k int, dst []int32) {
	for r := 0; r < rows; r++ {
		row := codes[r*k:][:k]
		var s int32
		for _, v := range row {
			s += int32(v)
		}
		dst[r] = s
	}
}

// dequantize rebuilds the float tensor; only the wide-reduction fallback
// paths use it.
func (iw *Int8Weights) dequantize() *tensor.Tensor {
	t := tensor.New(iw.Shape...)
	for i, c := range iw.Data {
		t.Data[i] = float32(c) * iw.Scale
	}
	return t
}

// QuantBackend is implemented by backends that consume pre-quantized
// weights directly. dnn layers use it as the inference fast path: when a
// layer holds a cached Int8Weights image and its backend implements
// QuantBackend, the forward pass skips the float weight tensor entirely.
type QuantBackend interface {
	Backend
	// Conv2DQ is Conv2D with the weight tensor already in int8 code form.
	Conv2DQ(in *tensor.Tensor, w *Int8Weights, bias *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor
	// MatMulTransBQ is MatMulTransB with B (stored n×k, the FC weight
	// layout) already in int8 code form.
	MatMulTransBQ(a *tensor.Tensor, w *Int8Weights) *tensor.Tensor
}

// qSafeK bounds the reduction length of the integer paths. The packed
// dual-lane kernels accumulate Σ(a+128)(b+128) per unsigned 32-bit lane
// with a, b int8 codes: each term is at most 255² = 65025, so reductions
// shorter than 2^16 keep every lane below 65025·(2^16−1) < 2^32 — no lane
// overflow, no carry into the neighboring lane. (The plain int32 tails are
// safe out to 2^17; the tighter packed bound governs.) Longer reductions —
// none of the zoo's layers come close — fall back to the float GEMM.
const qSafeK = 1 << 16

// sliceScaleI8 returns the symmetric int8 quantization step for src,
// max|x|/127 (1 for all-zero data), matching quant.Quantize's scale.
func sliceScaleI8(src []float32) float32 {
	var ma float32
	for _, v := range src {
		if v < 0 {
			v = -v
		}
		if v > ma {
			ma = v
		}
	}
	if ma == 0 {
		return 1
	}
	return ma / 127
}

// quantizeI8 encodes src into int8 codes with the given step, reproducing
// quant.Quantize's rounding bit for bit so code images agree across the
// float and QTensor entry points. The reference rounding is
// int32(math.Round(float64(v/scale))); because scale is always derived from
// src's own maximum, |v/scale| never exceeds ~127, where round-half-away
// equals adding ±0.5 in float64 (exact for these magnitudes) and truncating
// — which inlines to a couple of instructions instead of a math.Round call
// per element on the quantization pre-pass of every kernel invocation.
func quantizeI8(dst []int8, src []float32, scale float32) {
	for i, v := range src {
		q := float64(v / scale)
		var c int32
		if q >= 0 {
			c = int32(q + 0.5)
		} else {
			c = int32(q - 0.5)
		}
		if c > 127 {
			c = 127
		}
		if c < -128 {
			c = -128
		}
		dst[i] = int8(c)
	}
}

// MatMul computes C = A (m×k) * B (k×n) on int8 codes: A is quantized per
// row, B per tensor, and each output element is an exact int32 dot product
// rescaled once. Rows fan out across the pool; when the row count cannot
// feed every worker the split moves to column blocks instead, so a
// single-row product still scales.
func (qgemmBackend) MatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := matMulDims(a, b)
	if k >= qSafeK {
		return Gemm.MatMul(a, b)
	}
	c := tensor.New(m, n)
	qb := slabI8.get(k * n)
	defer slabI8.put(qb)
	sb := sliceScaleI8(b.Data)
	quantizeI8(*qb, b.Data, sb)
	qa := slabI8.get(m * k)
	defer slabI8.put(qa)
	sa := slabF32.get(m)
	defer slabF32.put(sa)
	for i := 0; i < m; i++ {
		row := a.Data[i*k : (i+1)*k]
		s := sliceScaleI8(row)
		(*sa)[i] = s
		quantizeI8((*qa)[i*k:(i+1)*k], row, s)
	}
	block := func(iLo, iHi, jLo, jHi int) {
		acc := slabI32.get(jHi - jLo)
		defer slabI32.put(acc)
		for i := iLo; i < iHi; i++ {
			arow := (*qa)[i*k : (i+1)*k]
			av := (*acc)[:jHi-jLo]
			for j := range av {
				av[j] = 0
			}
			width := jHi - jLo
			av = av[:width]
			for p, q := range arow {
				aq := int32(q)
				if aq == 0 {
					continue
				}
				brow := (*qb)[p*n+jLo:][:width]
				for j := 0; j < width; j++ {
					av[j] += aq * int32(brow[j])
				}
			}
			scale := (*sa)[i] * sb
			crow := c.Data[i*n+jLo : i*n+jHi]
			for j, s := range av {
				crow[j] = float32(s) * scale
			}
		}
	}
	switch wk := parallel.Workers(); {
	case m*k*n < parallelCutoff:
		block(0, m, 0, n)
	case m >= wk:
		parallel.For(m, 1, func(lo, hi int) { block(lo, hi, 0, n) })
	default:
		// Too few rows to feed the pool: split columns instead. Each output
		// element still accumulates its own full reduction, so the split is
		// invisible to the result.
		parallel.For(n, parallel.Grain(m*k), func(jLo, jHi int) { block(0, m, jLo, jHi) })
	}
	return c
}

// MatMulTransB quantizes B per tensor and defers to the shared integer
// core, so it returns bit-identical results to MatMulTransBQ on an image
// built by QuantizeInt8.
func (qg qgemmBackend) MatMulTransB(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := matMulTransBDims(a, b)
	if k >= qSafeK {
		return Gemm.MatMulTransB(a, b)
	}
	qw := slabI8.get(n * k)
	defer slabI8.put(qw)
	sw := sliceScaleI8(b.Data)
	quantizeI8(*qw, b.Data, sw)
	ws := slabI32.get(n)
	defer slabI32.put(ws)
	codeRowSums(*qw, n, k, *ws)
	return matMulTransBQCore(a, *qw, sw, (*ws)[:n], m, k, n)
}

// MatMulTransBQ computes C = A (m×k) * Wᵀ on pre-quantized weight codes.
func (qgemmBackend) MatMulTransBQ(a *tensor.Tensor, w *Int8Weights) *tensor.Tensor {
	if len(w.Shape) != 2 {
		panic(fmt.Sprintf("compute: MatMulTransBQ weight rank %d, want 2", len(w.Shape)))
	}
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := w.Shape[0], w.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("compute: MatMulTransBQ inner dims %d != %d", k, k2))
	}
	if k >= qSafeK {
		return Gemm.MatMulTransB(a, w.dequantize())
	}
	return matMulTransBQCore(a, w.Data, w.Scale, w.RowSums, m, k, n)
}

// matMulTransBQCore is the integer MatMulTransB kernel. A rows are
// quantized per row and packed two-per-uint64 with the codes biased to
// unsigned; four adjacent output columns then ride one pass over a packed
// row pair, each 64-bit multiply advancing two output rows at once. The
// bias terms are subtracted exactly on store from the precomputed row and
// column code sums (see the package comment), so results are bit-identical
// to the plain int32 formulation the odd-row and tail-column paths still
// use. wsums may be nil (recomputed into scratch); a non-nil wsums must
// hold the per-column code sums of qw.
func matMulTransBQCore(a *tensor.Tensor, qw []int8, sw float32, wsums []int32, m, k, n int) *tensor.Tensor {
	c := tensor.New(m, n)
	qa := slabI8.get(m * k)
	defer slabI8.put(qa)
	sa := slabF32.get(m)
	defer slabF32.put(sa)
	asums := slabI32.get(m)
	defer slabI32.put(asums)
	for i := 0; i < m; i++ {
		row := a.Data[i*k : (i+1)*k]
		s := sliceScaleI8(row)
		(*sa)[i] = s
		qrow := (*qa)[i*k:][:k]
		quantizeI8(qrow, row, s)
		var sum int32
		for _, q := range qrow {
			sum += int32(q)
		}
		(*asums)[i] = sum
	}
	if wsums == nil {
		ws := slabI32.get(n)
		defer slabI32.put(ws)
		codeRowSums(qw, n, k, *ws)
		wsums = (*ws)[:n]
	}
	// Pack adjacent A rows once; every column quad reuses the packed pairs.
	pairs := m / 2
	var packed []uint64
	if pairs > 0 {
		pk := slabU64.get(pairs * k)
		defer slabU64.put(pk)
		packed = (*pk)[:pairs*k]
		for r := 0; r < pairs; r++ {
			r0 := (*qa)[2*r*k:][:k]
			r1 := (*qa)[(2*r+1)*k:][:k]
			dst := packed[r*k:][:k]
			for p := 0; p < k; p++ {
				dst[p] = uint64(uint32(int32(r0[p])+128)) | uint64(uint32(int32(r1[p])+128))<<32
			}
		}
	}
	quads := n / 4
	kOff := 16384 * int64(k)
	cells := func(lo, hi int) {
		for q := lo; q < hi; q++ {
			j := q * 4
			b0 := qw[j*k:][:k]
			b1 := qw[(j+1)*k:][:k]
			b2 := qw[(j+2)*k:][:k]
			b3 := qw[(j+3)*k:][:k]
			off0 := 128*int64(wsums[j]) + kOff
			off1 := 128*int64(wsums[j+1]) + kOff
			off2 := 128*int64(wsums[j+2]) + kOff
			off3 := 128*int64(wsums[j+3]) + kOff
			for r := 0; r < pairs; r++ {
				prow := packed[r*k:][:k]
				var s0, s1, s2, s3 uint64
				for p := 0; p < k; p++ {
					pv := prow[p]
					s0 += pv * uint64(uint32(int32(b0[p])+128))
					s1 += pv * uint64(uint32(int32(b1[p])+128))
					s2 += pv * uint64(uint32(int32(b2[p])+128))
					s3 += pv * uint64(uint32(int32(b3[p])+128))
				}
				i0, i1 := 2*r, 2*r+1
				sa0, sa1 := 128*int64((*asums)[i0]), 128*int64((*asums)[i1])
				sc0, sc1 := (*sa)[i0]*sw, (*sa)[i1]*sw
				c0 := c.Data[i0*n+j:][:4]
				c1 := c.Data[i1*n+j:][:4]
				c0[0] = float32(int64(uint32(s0))-off0-sa0) * sc0
				c0[1] = float32(int64(uint32(s1))-off1-sa0) * sc0
				c0[2] = float32(int64(uint32(s2))-off2-sa0) * sc0
				c0[3] = float32(int64(uint32(s3))-off3-sa0) * sc0
				c1[0] = float32(int64(s0>>32)-off0-sa1) * sc1
				c1[1] = float32(int64(s1>>32)-off1-sa1) * sc1
				c1[2] = float32(int64(s2>>32)-off2-sa1) * sc1
				c1[3] = float32(int64(s3>>32)-off3-sa1) * sc1
			}
			if m%2 == 1 {
				i := m - 1
				arow := (*qa)[i*k:][:k]
				scale := (*sa)[i] * sw
				var s0, s1, s2, s3 int32
				for p := 0; p < k; p++ {
					aq := int32(arow[p])
					s0 += aq * int32(b0[p])
					s1 += aq * int32(b1[p])
					s2 += aq * int32(b2[p])
					s3 += aq * int32(b3[p])
				}
				crow := c.Data[i*n+j:][:4]
				crow[0] = float32(s0) * scale
				crow[1] = float32(s1) * scale
				crow[2] = float32(s2) * scale
				crow[3] = float32(s3) * scale
			}
		}
	}
	if quads > 0 {
		if m*k*n < parallelCutoff {
			cells(0, quads)
		} else {
			parallel.For(quads, parallel.Grain(m*4*k), cells)
		}
	}
	for j := quads * 4; j < n; j++ {
		brow := qw[j*k:][:k]
		for i := 0; i < m; i++ {
			arow := (*qa)[i*k:][:k]
			scale := (*sa)[i] * sw
			var sum int32
			for p := 0; p < k; p++ {
				sum += int32(arow[p]) * int32(brow[p])
			}
			c.Data[i*n+j] = float32(sum) * scale
		}
	}
	return c
}

// Conv2D folds the float weights to int8 codes and defers to the shared
// integer convolution, so it returns bit-identical results to Conv2DQ on an
// image built by QuantizeInt8.
func (qg qgemmBackend) Conv2D(in, w, bias *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor {
	g := convGeometry(in, w, p)
	if g.cg*g.kh*g.kw >= qSafeK {
		return Gemm.Conv2D(in, w, bias, p)
	}
	qw := slabI8.get(w.Size())
	defer slabI8.put(qw)
	sw := sliceScaleI8(w.Data)
	quantizeI8(*qw, w.Data, sw)
	ws := slabI32.get(g.f)
	defer slabI32.put(ws)
	codeRowSums(*qw, g.f, g.cg*g.kh*g.kw, *ws)
	return conv2DQCore(in, *qw, sw, (*ws)[:g.f], bias, g)
}

// Conv2DQ convolves on pre-quantized weight codes.
func (qgemmBackend) Conv2DQ(in *tensor.Tensor, w *Int8Weights, bias *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor {
	if len(w.Shape) != 4 {
		panic(fmt.Sprintf("compute: Conv2DQ weight rank %d, want 4", len(w.Shape)))
	}
	g := convGeometryDims(in, w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3], p)
	if g.cg*g.kh*g.kw >= qSafeK {
		return Gemm.Conv2D(in, w.dequantize(), bias, p)
	}
	return conv2DQCore(in, w.Data, w.Scale, w.RowSums, bias, g)
}

// conv2DQCore is the integer im2col convolution. The input is quantized
// once per sample (scale = that sample's max|x|/127, so fused batches and
// per-sample calls see identical codes) and the patch matrix is staged as
// int8 with explicit zero padding. Four filters then ride one pass over each
// patch row in the packed dual-lane form: per reduction tap the four biased
// filter codes collapse into two uint64 lane pairs, and each patch byte
// costs two 64-bit multiplies for four filter accumulations. The unsigned
// bias is subtracted exactly on store — per-filter code sums arrive in
// wsums (nil recomputes into scratch), per-patch-column code sums are
// summed once per block — and each row segment is rescaled by
// sampleScale·weightScale and biased, bit-identical to the plain int32
// formulation the leftover-filter path still uses.
func conv2DQCore(in *tensor.Tensor, qw []int8, sw float32, wsums []int32, bias *tensor.Tensor, g convGeom) *tensor.Tensor {
	p := g.p
	n, c, h, wd := g.n, g.c, g.h, g.w
	f, cg, kh, kw := g.f, g.cg, g.kh, g.kw
	oh, ow := g.oh, g.ow
	out := tensor.New(n, f, oh, ow)
	fPerG := f / p.Groups
	kTotal := cg * kh * kw
	direct11 := kh == 1 && kw == 1 && p.Stride == 1 && p.Padding == 0
	if wsums == nil {
		ws := slabI32.get(f)
		defer slabI32.put(ws)
		codeRowSums(qw, f, kTotal, *ws)
		wsums = (*ws)[:f]
	}
	kOff := 16384 * int64(kTotal)

	// Quantize the input once, one scale per sample.
	sample := c * h * wd
	qin := slabI8.get(n * sample)
	defer slabI8.put(qin)
	sa := slabF32.get(n)
	defer slabF32.put(sa)
	quantSamples := func(lo, hi int) {
		for b := lo; b < hi; b++ {
			src := in.Data[b*sample : (b+1)*sample]
			s := sliceScaleI8(src)
			(*sa)[b] = s
			quantizeI8((*qin)[b*sample:(b+1)*sample], src, s)
		}
	}
	if n == 1 || n*sample < parallelCutoff {
		quantSamples(0, n)
	} else {
		parallel.For(n, 1, quantSamples)
	}

	// Row blocking mirrors the float Gemm kernel: patch matrix capped to
	// stay cache-resident, blocks shrunk if they would idle the pool. The
	// int8 patch matrix is a quarter the bytes of the float one, so the
	// same cache budget admits four times the rows per block.
	rowsPer := max(1, 4*colBlockElems/max(1, kTotal*ow))
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
		var col *[]int8
		if !direct11 {
			col = slabI8.get(kTotal * rowsPer * ow)
			defer slabI8.put(col)
		}
		accU := slabU64.get(2 * rowsPer * ow)
		defer slabU64.put(accU)
		acc := slabI32.get(2 * rowsPer * ow)
		defer slabI32.put(acc)
		for idx := lo; idx < hi; idx++ {
			b := idx / (p.Groups * blocks)
			rem := idx % (p.Groups * blocks)
			grp := rem / blocks
			oyLo := (rem % blocks) * rowsPer
			oyHi := min(oyLo+rowsPer, oh)
			mLen := (oyHi - oyLo) * ow
			var colData []int8
			if !direct11 {
				colData = (*col)[:kTotal*mLen]
				im2colI8(colData, *qin, b, c, grp*cg, cg, kh, kw, h, wd, ow, oyLo, oyHi, p.Stride, p.Padding)
			}
			// Every slice the inner loops touch is re-sliced to exactly
			// [:mLen] so the compiler's prove pass sees len == mLen on all
			// of them and drops the per-element bounds checks — the j loop
			// runs to mLen, so one comparison covers five slices.
			colRowAt := func(k int) []int8 {
				if direct11 {
					return (*qin)[((b*c+grp*cg+k)*h+oyLo)*wd:][:mLen]
				}
				return colData[k*mLen:][:mLen]
			}
			outScale := (*sa)[b] * sw
			biasAt := func(fo int) float32 {
				if bias == nil {
					return 0
				}
				return bias.Data[fo]
			}
			store := func(fo int, accRow []int32) {
				accRow = accRow[:mLen]
				dst := out.Data[((b*f+fo)*oh+oyLo)*ow:][:mLen]
				bv := biasAt(fo)
				for j := 0; j < mLen; j++ {
					dst[j] = float32(accRow[j])*outScale + bv
				}
			}
			fo := grp * fPerG
			foEnd := (grp + 1) * fPerG
			var scol []int32
			if fo+4 <= foEnd {
				// Per-patch-column code sums, shared by every filter quad of
				// this block: one extra pass over the patch matrix amortized
				// over fPerG/4 packed quads.
				scol = (*acc)[mLen:][:mLen]
				for j := range scol {
					scol[j] = 0
				}
				for k := 0; k < kTotal; k++ {
					cr := colRowAt(k)
					cr = cr[:mLen]
					for j := 0; j < mLen; j++ {
						scol[j] += int32(cr[j])
					}
				}
			}
			for ; fo+4 <= foEnd; fo += 4 {
				au := (*accU)[: 2*mLen : 2*mLen]
				for j := range au {
					au[j] = 0
				}
				a01, a23 := au[:mLen], au[mLen:][:mLen]
				w0 := qw[fo*kTotal:][:kTotal]
				w1 := qw[(fo+1)*kTotal:][:kTotal]
				w2 := qw[(fo+2)*kTotal:][:kTotal]
				w3 := qw[(fo+3)*kTotal:][:kTotal]
				for k := 0; k < kTotal; k++ {
					pw01 := uint64(uint32(int32(w0[k])+128)) | uint64(uint32(int32(w1[k])+128))<<32
					pw23 := uint64(uint32(int32(w2[k])+128)) | uint64(uint32(int32(w3[k])+128))<<32
					cr := colRowAt(k)
					cr = cr[:mLen]
					for j := 0; j < mLen; j++ {
						cv := uint64(uint32(int32(cr[j]) + 128))
						a01[j] += cv * pw01
						a23[j] += cv * pw23
					}
				}
				d0 := out.Data[((b*f+fo)*oh+oyLo)*ow:][:mLen]
				d1 := out.Data[((b*f+fo+1)*oh+oyLo)*ow:][:mLen]
				d2 := out.Data[((b*f+fo+2)*oh+oyLo)*ow:][:mLen]
				d3 := out.Data[((b*f+fo+3)*oh+oyLo)*ow:][:mLen]
				off0 := 128*int64(wsums[fo]) + kOff
				off1 := 128*int64(wsums[fo+1]) + kOff
				off2 := 128*int64(wsums[fo+2]) + kOff
				off3 := 128*int64(wsums[fo+3]) + kOff
				bv0, bv1 := biasAt(fo), biasAt(fo+1)
				bv2, bv3 := biasAt(fo+2), biasAt(fo+3)
				for j := 0; j < mLen; j++ {
					cb := 128 * int64(scol[j])
					v01, v23 := a01[j], a23[j]
					d0[j] = float32(int64(uint32(v01))-off0-cb)*outScale + bv0
					d1[j] = float32(int64(v01>>32)-off1-cb)*outScale + bv1
					d2[j] = float32(int64(uint32(v23))-off2-cb)*outScale + bv2
					d3[j] = float32(int64(v23>>32)-off3-cb)*outScale + bv3
				}
			}
			for ; fo < foEnd; fo++ {
				a0 := (*acc)[:mLen]
				for j := range a0 {
					a0[j] = 0
				}
				wRow := qw[fo*kTotal:][:kTotal]
				for k := 0; k < kTotal; k++ {
					wv := int32(wRow[k])
					if wv == 0 {
						continue
					}
					cr := colRowAt(k)
					cr = cr[:mLen]
					for j := 0; j < mLen; j++ {
						a0[j] += wv * int32(cr[j])
					}
				}
				store(fo, a0)
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

// im2colI8 is im2col over a flat int8 code buffer: it stages the patch
// matrix for output rows [oyLo, oyHi) of one (sample, group), writing
// explicit zeros for padding taps. Every element is written, so the slab
// needs no clearing.
func im2colI8(col []int8, qin []int8, b, c, cin0, cg, kh, kw, h, wd, ow, oyLo, oyHi, stride, pad int) {
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
							copy(row[oxLo:oxHi], qin[rowBase+ix:rowBase+ix+(oxHi-oxLo)])
						} else {
							ix := oxLo*stride - pad + kx
							for j := oxLo; j < oxHi; j++ {
								row[j] = qin[rowBase+ix]
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

// Conv2DBackward delegates to the lowered float backward: gradients are
// defined on the float linearization (a straight-through estimator — the
// quantizer's staircase has zero derivative almost everywhere), and
// retraining wants the same lowered path the float backends run.
func (qgemmBackend) Conv2DBackward(in, w *tensor.Tensor, hasBias bool, dOut *tensor.Tensor, p tensor.Conv2DParams) (dIn, dW, dBias *tensor.Tensor) {
	return Gemm.Conv2DBackward(in, w, hasBias, dOut, p)
}
