package compute

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// These property tests are the cross-backend contract: on randomized
// shapes, strides, paddings and group counts, the Gemm backend must
// reproduce Ref bit for bit, at every worker count. The inputs mix dense
// random values with exact zeros (the post-ReLU activation pattern) and
// zeroed weights (the pruned-model pattern) so the zero-skip and padding
// paths are exercised, not just the dense fast path. Every test runs twice
// (forEachVecPath): on the vector primitives and on their scalar bodies.

// sprinkleZeros forces roughly one in four elements to exact zero, the
// way ReLU activations and pruned weights look in real forwards.
func sprinkleZeros(t *tensor.Tensor, r *tensor.RNG) {
	for i := range t.Data {
		if r.Intn(4) == 0 {
			t.Data[i] = 0
		}
	}
}

func randomTensor(r *tensor.RNG, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	t.FillUniform(r, -2, 2)
	sprinkleZeros(t, r)
	return t
}

// atWorkerCounts runs f at several pool sizes, restoring the budget after.
func atWorkerCounts(t *testing.T, f func()) {
	t.Helper()
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, w := range []int{1, 2, 3, 8} {
		parallel.SetWorkers(w)
		f()
	}
}

func TestGemmMatMulBitIdenticalToRef(t *testing.T) {
	forEachVecPath(t, testGemmMatMulBitIdenticalToRef)
}

func testGemmMatMulBitIdenticalToRef(t *testing.T) {
	r := tensor.NewRNG(0x6E77)
	for iter := 0; iter < 40; iter++ {
		m := r.Intn(40) + 1
		k := r.Intn(96) + 1
		n := r.Intn(48) + 1
		a := randomTensor(r, m, k)
		b := randomTensor(r, k, n)
		want := Ref.MatMul(a, b)
		atWorkerCounts(t, func() {
			assertSame(t, fmt.Sprintf("MatMul %dx%dx%d", m, k, n), Gemm.MatMul(a, b), want)
		})
	}
}

func TestGemmMatMulTransBBitIdenticalToRef(t *testing.T) {
	forEachVecPath(t, testGemmMatMulTransBBitIdenticalToRef)
}

func testGemmMatMulTransBBitIdenticalToRef(t *testing.T) {
	r := tensor.NewRNG(0x6E78)
	for iter := 0; iter < 40; iter++ {
		m := r.Intn(40) + 1
		k := r.Intn(96) + 1
		n := r.Intn(48) + 1
		a := randomTensor(r, m, k)
		b := randomTensor(r, n, k)
		want := Ref.MatMulTransB(a, b)
		atWorkerCounts(t, func() {
			assertSame(t, fmt.Sprintf("MatMulTransB %dx%dx%d", m, k, n), Gemm.MatMulTransB(a, b), want)
		})
	}
	// From half a tile's width of rows up the batch row is the vector axis:
	// row counts on both sides of that threshold and of one, two and three
	// strips, against filter counts that leave every size of padded quad,
	// and reductions up to 600.
	for _, m := range []int{7, 8, 9, 15, 16, 17, 31, 32, 33, 48} {
		for _, n := range []int{1, 3, 4, 5, 10, 512} {
			k := r.Intn(600) + 1
			a := randomTensor(r, m, k)
			b := randomTensor(r, n, k)
			want := Ref.MatMulTransB(a, b)
			atWorkerCounts(t, func() {
				assertSame(t, fmt.Sprintf("MatMulTransB %dx%dx%d", m, k, n), Gemm.MatMulTransB(a, b), want)
			})
		}
	}
	// An empty reduction has nothing to stage: m×n zeros on either path.
	for _, m := range []int{1, 8, 17} {
		a, b := tensor.New(m, 0), tensor.New(5, 0)
		assertSame(t, fmt.Sprintf("MatMulTransB %dx0x5", m), Gemm.MatMulTransB(a, b), Ref.MatMulTransB(a, b))
	}
}

func TestGemmConv2DBitIdenticalToRef(t *testing.T) {
	forEachVecPath(t, testGemmConv2DBitIdenticalToRef)
}

func testGemmConv2DBitIdenticalToRef(t *testing.T) {
	r := tensor.NewRNG(0x6E79)
	for iter := 0; iter < 60; iter++ {
		stride := r.Intn(3) + 1
		k := r.Intn(5) + 1
		pad := r.Intn(k) // padding up to kernel-1, including zero
		// Pick channels/groups so groups divides both C and F.
		groups := 1
		cg := r.Intn(6) + 1
		fPerG := r.Intn(6) + 1
		if r.Intn(3) == 0 {
			groups = r.Intn(4) + 1
		}
		c := cg * groups
		f := fPerG * groups
		n := r.Intn(3) + 1
		// Spatial extent at least the kernel so the output is non-empty —
		// except for an occasional overhang case, where the input is
		// smaller than the kernel and only maximal padding keeps the
		// output alive (the regime where the tap bounds need clamping).
		h := k + r.Intn(18)
		w := k + r.Intn(18)
		if r.Intn(4) == 0 {
			h = r.Intn(k) + 1
			w = r.Intn(k) + 1
			pad = k - 1
		}
		p := tensor.Conv2DParams{Stride: stride, Padding: pad, Groups: groups}
		in := randomTensor(r, n, c, h, w)
		wt := randomTensor(r, f, cg, k, k)
		var bias *tensor.Tensor
		if r.Intn(2) == 0 {
			bias = randomTensor(r, f)
		}
		desc := fmt.Sprintf("Conv2D n=%d c=%d h=%d w=%d f=%d k=%d s=%d p=%d g=%d bias=%v",
			n, c, h, w, f, k, stride, pad, groups, bias != nil)
		want := Ref.Conv2D(in, wt, bias, p)
		atWorkerCounts(t, func() {
			assertSame(t, desc, Gemm.Conv2D(in, wt, bias, p), want)
		})
	}
}

// TestGemmConv2DTileEdgesBitIdenticalToRef walks the edges of the tiled
// lowering, which random geometries rarely land on: column counts (output
// pixels of the whole batch) on both sides of one and two strips, reached
// through one sample or through many small ones so that strips span
// samples; filters per group that leave every size of padded quad; several
// groups; the 1×1 kernel, a 5×5 one and stride 2; the serving shapes at
// batches of 1 and 16; and every way a strip's halves can lie in the input
// it is read from in place — inside a row, across a row end, in different
// samples — under every padding of every kernel. Everything at 1, 2, 3 and
// 8 workers — the single-sample cases are what pins that cutting a call for
// the pool moves no bit.
func TestGemmConv2DTileEdgesBitIdenticalToRef(t *testing.T) {
	forEachVecPath(t, testGemmConv2DTileEdgesBitIdenticalToRef)
}

func testGemmConv2DTileEdgesBitIdenticalToRef(t *testing.T) {
	r := tensor.NewRNG(0x6E7D)
	// checkPad convolves n samples to an oh×ow map.
	checkPad := func(n, oh, ow, cg, fPerG, groups, k, stride, pad int) {
		t.Helper()
		h, w := (oh-1)*stride+k-2*pad, (ow-1)*stride+k-2*pad
		p := tensor.Conv2DParams{Stride: stride, Padding: pad, Groups: groups}
		in := randomTensor(r, n, cg*groups, h, w)
		wt := randomTensor(r, fPerG*groups, cg, k, k)
		bias := randomTensor(r, fPerG*groups)
		if r.Intn(3) == 0 {
			bias = nil
		}
		desc := fmt.Sprintf("Conv2D n=%d cg=%d %dx%d->%dx%d fPerG=%d k=%d s=%d p=%d g=%d bias=%v",
			n, cg, h, w, oh, ow, fPerG, k, stride, pad, groups, bias != nil)
		want := Ref.Conv2D(in, wt, bias, p)
		if got := want.Shape(); got[2] != oh || got[3] != ow {
			t.Fatalf("%s: output map %v", desc, got)
		}
		atWorkerCounts(t, func() {
			assertSame(t, desc, Gemm.Conv2D(in, wt, bias, p), want)
		})
	}
	check := func(n, oh, ow, cg, fPerG, groups, k, stride int) {
		t.Helper()
		checkPad(n, oh, ow, cg, fPerG, groups, k, stride, k/2)
	}
	fPerGs := []int{1, 2, 3, 5, 6, 7, 12}
	kernels := []struct{ k, stride, cg int }{{3, 1, 5}, {1, 1, 24}, {3, 2, 4}, {5, 1, 2}}
	i := 0
	for _, m := range []struct{ n, oh, ow int }{
		{1, 2, 2}, {4, 1, 1}, {2, 1, 2}, // 4 columns
		{1, 3, 5}, {3, 1, 5}, {15, 1, 1}, {5, 3, 1}, // 15
		{1, 4, 4}, {4, 2, 2}, {16, 1, 1}, {2, 2, 4}, // 16
		{1, 1, 17}, {17, 1, 1}, // 17
		{1, 31, 1}, {31, 1, 1}, // 31
		{1, 3, 11}, {3, 11, 1}, {11, 1, 3}, {33, 1, 1}, // 33
	} {
		for _, kn := range kernels {
			check(m.n, m.oh, m.ow, kn.cg, fPerGs[i%len(fPerGs)], 1+i%3, kn.k, kn.stride)
			i++
		}
	}
	// Every padded quad against every group count, on strips that span
	// samples (3 × 11 columns) and on one sample's whole strips.
	for _, fPerG := range fPerGs {
		for groups := 1; groups <= 3; groups++ {
			check(3, 1, 11, 3, fPerG, groups, 3, 1)
			check(2, 4, 8, 3, fPerG, groups, 3, 1)
		}
	}
	// Serving shapes, alone and as a full batch.
	for _, n := range []int{1, 16} {
		check(n, 16, 16, 3, 6, 1, 5, 1)   // LeNet conv1
		check(n, 8, 8, 6, 12, 1, 5, 1)    // LeNet conv2
		check(n, 16, 16, 16, 16, 1, 3, 1) // VGG conv1_2
		check(n, 4, 4, 32, 64, 1, 3, 1)   // VGG conv3_1: one strip per sample
		check(n, 8, 8, 1, 1, 16, 3, 1)    // depthwise
		check(n, 8, 8, 16, 24, 1, 1, 1)   // pointwise
		check(n, 4, 4, 8, 16, 1, 3, 2)    // stride 2
	}
	// Strips read in place. Five rows of 8, 16, 24, 32 or 40 put both halves
	// of a strip inside a row, next to each other or a row apart, and where
	// the plane is 40, 120 or 200 pixels every other sample starts in the
	// middle of a strip, which must be staged; 12 and 20 leave a half across
	// a row end. Without padding the source is the input itself, and the last
	// strip of the last sample ends on the last element of in.Data, which is
	// exactly as long as its shape; a 1-wide kernel's rows abut, padded or
	// not.
	for _, n := range []int{1, 16} {
		for _, ow := range []int{8, 12, 16, 20, 24, 32, 40} {
			for _, k := range []int{1, 3, 5} {
				for pad := 0; pad <= 2; pad++ {
					checkPad(n, 5, ow, 3, fPerGs[i%len(fPerGs)], 1+i%2, k, 1, pad)
					i++
				}
			}
		}
		checkPad(n, 16, 16, 1, 1, 8, 3, 1, 0) // depthwise, unpadded
		checkPad(n, 5, 8, 4, 6, 3, 3, 1, 1)   // groups on a 40-pixel plane
	}
}

// TestGemmMatMulColumnSplitBitIdenticalToRef pins the serving-shaped
// regime — few rows, many columns — where the lowered MatMul splits the
// output columns (not rows) across workers. Each output element still
// accumulates k-ascending, so the result must match Ref bit for bit.
func TestGemmMatMulColumnSplitBitIdenticalToRef(t *testing.T) {
	forEachVecPath(t, testGemmMatMulColumnSplitBitIdenticalToRef)
}

func testGemmMatMulColumnSplitBitIdenticalToRef(t *testing.T) {
	r := tensor.NewRNG(0x6E7E)
	for _, m := range []int{1, 2, 3} {
		a := randomTensor(r, m, 256)
		b := randomTensor(r, 256, 128)
		want := Ref.MatMul(a, b)
		atWorkerCounts(t, func() {
			assertSame(t, fmt.Sprintf("column-split MatMul m=%d", m), Gemm.MatMul(a, b), want)
		})
	}
}

// TestGemmConv2DBackwardMatchesRef pins the lowered backward pass: dW and
// dBias reproduce Ref bit for bit (the lowering preserves their per-element
// accumulation order exactly, however the dW columns are cut into work
// items), while dIn — whose lowered form pre-reduces over filters in a
// fixed order of its own — is held to a float tolerance against Ref and to
// loweredDIn, a serial restatement of that order, bit for bit, so it cannot
// move with the worker count or the vec path. Random geometries mostly fall
// under parallelCutoff (where Gemm delegates to Ref), so zooBackwardShapes
// and loweredBackwardCases, which must all take the lowered path, are what
// cover it. See gemmBackend.Conv2DBackward for the contract.
func TestGemmConv2DBackwardMatchesRef(t *testing.T) {
	forEachVecPath(t, testGemmConv2DBackwardMatchesRef)
}

func testGemmConv2DBackwardMatchesRef(t *testing.T) {
	r := tensor.NewRNG(0x6E7F)
	for iter := 0; iter < 40; iter++ {
		s := backwardShape{stride: r.Intn(3) + 1, k: r.Intn(5) + 1, groups: 1}
		s.pad = r.Intn(s.k)
		cg := r.Intn(6) + 1
		fPerG := r.Intn(6) + 1
		if r.Intn(3) == 0 {
			s.groups = r.Intn(4) + 1
		}
		s.c, s.f = cg*s.groups, fPerG*s.groups
		s.n = r.Intn(3) + 1
		s.h = s.k + r.Intn(14)
		s.w = s.k + r.Intn(14)
		s.name = "random"
		checkConv2DBackward(t, r, s, r.Intn(2) == 0)
	}
	// All but the benchmark's probe shape (index 0): 115 M multiply-adds per
	// pass is seconds of Ref under the race detector, and every path it takes
	// a smaller shape below takes too.
	for _, s := range append(zooBackwardShapes[1:], loweredBackwardCases...) {
		if s.macs() < parallelCutoff {
			t.Fatalf("%s: below parallelCutoff, would compare Ref with Ref", s.name)
		}
		checkConv2DBackward(t, r, s, true)
		checkConv2DBackward(t, r, s, false)
	}
}

// loweredBackwardCases are geometries beyond the zoo's, each reaching a part
// of the lowered sweeps the zoo does not. At 2, 3 and 8 workers its column
// ranges are 16 to 48 wide.
var loweredBackwardCases = []backwardShape{
	// Seven row blocks in the input sweep, two to four in the weight sweep.
	{"multi_block", 2, 32, 28, 28, 8, 3, 1, 1, 1},
	{"multi_block_wide_rows", 1, 16, 6, 70, 4, 3, 1, 1, 1},
	// Reductions narrower than one vector (every axpy all scalar tail) and
	// than two.
	{"k4_2x2", 4, 1, 20, 20, 8, 2, 1, 0, 1},
	{"k4_1x1", 4, 4, 12, 12, 8, 1, 1, 0, 1},
	{"k12_grouped_2x2", 3, 6, 11, 13, 4, 2, 1, 1, 2},
	// Widths that are no multiple of 8, so every axpy has a scalar tail.
	{"k50_5x5", 3, 2, 12, 10, 5, 5, 1, 2, 1},
	{"k17_1x1", 4, 17, 9, 9, 6, 1, 1, 0, 1},
	// Column ranges that straddle a group boundary (k spans 36 and 54).
	{"groups2_k36", 3, 8, 10, 10, 6, 3, 1, 1, 2},
	{"groups3_k54", 2, 18, 9, 7, 6, 3, 1, 1, 3},
	// Stride 2 with padding at and past half the kernel.
	{"stride2_pad1", 3, 4, 15, 15, 6, 3, 2, 1, 1},
	{"stride2_pad2", 3, 4, 15, 13, 6, 3, 2, 2, 1},
	{"stride2_pad3_5x5", 2, 3, 14, 14, 4, 5, 2, 3, 1},
	{"stride3_grouped", 2, 8, 17, 17, 4, 4, 3, 2, 2},
}

// checkConv2DBackward draws operands for s — a quarter of every tensor
// exactly zero, half the gradient again, one gradient plane and one whole
// filter's gradient all zero — and holds Gemm.Conv2DBackward to Ref and to
// loweredDIn at every worker count.
func checkConv2DBackward(t *testing.T, r *tensor.RNG, s backwardShape, hasBias bool) {
	t.Helper()
	p := tensor.Conv2DParams{Stride: s.stride, Padding: s.pad, Groups: s.groups}
	in := randomTensor(r, s.n, s.c, s.h, s.w)
	wt := randomTensor(r, s.f, s.c/s.groups, s.k, s.k)
	dOut := randomTensor(r, Ref.Conv2D(in, wt, nil, p).Shape()...)
	sprinkleZeros(dOut, r) // the gv==0 skip path must stay bit-neutral
	plane := dOut.Dim(2) * dOut.Dim(3)
	zeroFilter, zeroPlane := r.Intn(s.f), r.Intn(s.n*s.f)
	for i := range dOut.Data {
		if i/plane%s.f == zeroFilter || i/plane == zeroPlane {
			dOut.Data[i] = 0
		}
	}
	desc := fmt.Sprintf("Conv2DBackward %s n=%d c=%d h=%d w=%d f=%d k=%d s=%d p=%d g=%d bias=%v",
		s.name, s.n, s.c, s.h, s.w, s.f, s.k, s.stride, s.pad, s.groups, hasBias)
	wantIn, wantW, wantB := Ref.Conv2DBackward(in, wt, hasBias, dOut, p)
	pinnedIn := wantIn
	if s.macs() >= parallelCutoff {
		pinnedIn = loweredDIn(in, wt, dOut, p)
	}
	atWorkerCounts(t, func() {
		gIn, gW, gB := Gemm.Conv2DBackward(in, wt, hasBias, dOut, p)
		assertSame(t, desc+" dW", gW, wantW)
		if hasBias {
			assertSame(t, desc+" dBias", gB, wantB)
		} else if gB != nil {
			t.Fatalf("%s: dBias should be nil", desc)
		}
		for i := range gIn.Data {
			diff := float64(gIn.Data[i] - wantIn.Data[i])
			if diff < 0 {
				diff = -diff
			}
			if lim := 1e-3 * (1 + float64(abs32(wantIn.Data[i]))); diff > lim {
				t.Fatalf("%s: dIn[%d] = %v, Ref %v", desc, i, gIn.Data[i], wantIn.Data[i])
			}
		}
		assertSame(t, desc+" dIn against the lowered order", gIn, pinnedIn)
	})
}

// loweredDIn is the specification of the lowered dIn, in plain serial
// loops: per (sample, group, block of output rows) the patch-matrix
// gradient dcol[k][m] sums w[fo][k]·dOut[fo][m] over the group's filters in
// ascending order, skipping zero weights, and is then added into dIn tap by
// tap in (k, output-pixel) order. The row blocking is part of the order,
// and a function of the shape alone.
func loweredDIn(in, w, dOut *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor {
	g := convGeometry(in, w, p)
	p = g.p
	oh, ow := dOut.Dim(2), dOut.Dim(3)
	fPerG, kTotal := g.f/p.Groups, g.cg*g.kh*g.kw
	rowsPer := min(oh, max(1, colBlockElems/max(1, kTotal*ow)))
	dIn := tensor.New(g.n, g.c, g.h, g.w)
	dcol := make([]float32, kTotal*rowsPer*ow)
	for b := 0; b < g.n; b++ {
		for grp := 0; grp < p.Groups; grp++ {
			for oyLo := 0; oyLo < oh; oyLo += rowsPer {
				oyHi := min(oyLo+rowsPer, oh)
				mLen := (oyHi - oyLo) * ow
				for i := range dcol {
					dcol[i] = 0
				}
				for fo := grp * fPerG; fo < (grp+1)*fPerG; fo++ {
					for k := 0; k < kTotal; k++ {
						wv := w.Data[fo*kTotal+k]
						if wv == 0 {
							continue
						}
						for m := 0; m < mLen; m++ {
							dcol[k*mLen+m] += wv * dOut.Data[((b*g.f+fo)*oh+oyLo)*ow+m]
						}
					}
				}
				for k := 0; k < kTotal; k++ {
					ci, ky, kx := k/(g.kh*g.kw), k/g.kw%g.kh, k%g.kw
					for m := 0; m < mLen; m++ {
						iy := (oyLo+m/ow)*p.Stride - p.Padding + ky
						ix := m%ow*p.Stride - p.Padding + kx
						if iy >= 0 && iy < g.h && ix >= 0 && ix < g.w {
							dIn.Data[((b*g.c+grp*g.cg+ci)*g.h+iy)*g.w+ix] += dcol[k*mLen+m]
						}
					}
				}
			}
		}
	}
	return dIn
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// TestGemmConv2DOneByOneFastPath pins the 1×1 lowering against Ref
// explicitly: unpadded, so its strips are staged from the input itself.
func TestGemmConv2DOneByOneFastPath(t *testing.T) { forEachVecPath(t, testGemmConv2DOneByOneFastPath) }

func testGemmConv2DOneByOneFastPath(t *testing.T) {
	r := tensor.NewRNG(0x6E7A)
	in := randomTensor(r, 2, 16, 9, 11)
	wt := randomTensor(r, 24, 16, 1, 1)
	bias := randomTensor(r, 24)
	p := tensor.Conv2DParams{Stride: 1}
	want := Ref.Conv2D(in, wt, bias, p)
	atWorkerCounts(t, func() {
		assertSame(t, "1x1 conv", Gemm.Conv2D(in, wt, bias, p), want)
	})
}

// TestGemmConv2DKernelLargerThanInput exercises taps that fall entirely in
// the padding band, where staging must emit pure zero rows.
func TestGemmConv2DKernelLargerThanInput(t *testing.T) {
	forEachVecPath(t, testGemmConv2DKernelLargerThanInput)
}

func testGemmConv2DKernelLargerThanInput(t *testing.T) {
	r := tensor.NewRNG(0x6E7B)
	in := randomTensor(r, 1, 2, 3, 3)
	wt := randomTensor(r, 4, 2, 5, 5)
	p := tensor.Conv2DParams{Stride: 1, Padding: 2}
	want := Ref.Conv2D(in, wt, nil, p)
	atWorkerCounts(t, func() {
		assertSame(t, "kernel>input conv", Gemm.Conv2D(in, wt, nil, p), want)
	})
}

// TestGemmConv2DPaddingBoundClamp pins a regression: with a kernel much
// wider than the output (W=4, 9×9 kernel, padding 3 → OW=2) the raw
// in-bounds lower bound for the leftmost taps lands past the row end and
// must clamp to OW instead of overrunning the staged row.
func TestGemmConv2DPaddingBoundClamp(t *testing.T) {
	forEachVecPath(t, testGemmConv2DPaddingBoundClamp)
}

func testGemmConv2DPaddingBoundClamp(t *testing.T) {
	r := tensor.NewRNG(0x6E7C)
	in := randomTensor(r, 1, 1, 4, 4)
	wt := randomTensor(r, 2, 1, 9, 9)
	p := tensor.Conv2DParams{Stride: 1, Padding: 3}
	want := Ref.Conv2D(in, wt, nil, p)
	atWorkerCounts(t, func() {
		assertSame(t, "padding-bound clamp conv", Gemm.Conv2D(in, wt, nil, p), want)
	})
}

// TestGemmConv2DAllocations pins what a lowered convolution allocates: its
// output, the work closure and what the fan-out costs — nothing per strip
// or per work item, whose panel, zero-bordered planes and offset tables all
// come out of the slab pools. The ceilings are the counts measured before
// strips were read in place: 5 on the calling goroutine, 12 across two
// workers. The collector is off meanwhile: a cycle empties the pools, and
// the slabs regrown after it are not the call's.
func TestGemmConv2DAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	forEachVecPath(t, func(t *testing.T) {
		prev := parallel.Workers()
		defer parallel.SetWorkers(prev)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		r := tensor.NewRNG(0x6E7E)
		for _, c := range []struct {
			name         string
			cin, f, k    int
			pad, workers int
			ceiling      float64
		}{
			{"padded 3x3, serial", 16, 16, 3, 1, 1, 5},
			{"padded 3x3, 2 workers", 16, 16, 3, 1, 2, 12},
			{"unpadded 1x1, serial", 16, 24, 1, 0, 1, 5},
			{"unpadded 1x1, 2 workers", 16, 24, 1, 0, 2, 12},
		} {
			parallel.SetWorkers(c.workers)
			in := randomTensor(r, 16, c.cin, 16, 16)
			wt := randomTensor(r, c.f, c.cin, c.k, c.k)
			bias := randomTensor(r, c.f)
			p := tensor.Conv2DParams{Stride: 1, Padding: c.pad}
			if avg := testing.AllocsPerRun(20, func() { Gemm.Conv2D(in, wt, bias, p) }); avg > c.ceiling {
				t.Errorf("%s: Conv2D allocates %v times per call, ceiling %v", c.name, avg, c.ceiling)
			}
		}
	})
}
