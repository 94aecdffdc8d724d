package compute

import (
	"fmt"
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
	for _, w := range []int{1, 3, 8} {
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
		// output alive (the regime where im2col's bounds need clamping).
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

// TestGemmConv2DBackwardMatchesRef pins the lowered backward pass against
// Ref on randomized geometry: dW and dBias reproduce Ref bit for bit (the
// lowering preserves their per-element accumulation order exactly), while
// dIn — whose lowered form pre-reduces over filters in a fixed order of its
// own — is held to a float tolerance against Ref and bit-identical to
// itself across worker counts. See gemmBackend.Conv2DBackward for the
// contract.
func TestGemmConv2DBackwardMatchesRef(t *testing.T) {
	forEachVecPath(t, testGemmConv2DBackwardMatchesRef)
}

func testGemmConv2DBackwardMatchesRef(t *testing.T) {
	r := tensor.NewRNG(0x6E7F)
	for iter := 0; iter < 40; iter++ {
		stride := r.Intn(3) + 1
		k := r.Intn(5) + 1
		pad := r.Intn(k)
		groups := 1
		cg := r.Intn(6) + 1
		fPerG := r.Intn(6) + 1
		if r.Intn(3) == 0 {
			groups = r.Intn(4) + 1
		}
		c := cg * groups
		f := fPerG * groups
		n := r.Intn(3) + 1
		h := k + r.Intn(14)
		w := k + r.Intn(14)
		p := tensor.Conv2DParams{Stride: stride, Padding: pad, Groups: groups}
		in := randomTensor(r, n, c, h, w)
		wt := randomTensor(r, f, cg, k, k)
		hasBias := r.Intn(2) == 0
		out := Ref.Conv2D(in, wt, nil, p)
		dOut := randomTensor(r, out.Shape()...)
		sprinkleZeros(dOut, r) // the gv==0 skip path must stay bit-neutral
		wantIn, wantW, wantB := Ref.Conv2DBackward(in, wt, hasBias, dOut, p)
		desc := fmt.Sprintf("Conv2DBackward n=%d c=%d h=%d w=%d f=%d k=%d s=%d p=%d g=%d bias=%v",
			n, c, h, w, f, k, stride, pad, groups, hasBias)
		var pinnedIn *tensor.Tensor
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
			if pinnedIn == nil {
				pinnedIn = gIn
			} else {
				assertSame(t, desc+" dIn worker invariance", gIn, pinnedIn)
			}
		})
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// TestGemmConv2DOneByOneFastPath pins the no-copy 1×1 lowering against Ref
// explicitly, since it bypasses im2col entirely.
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
// the padding band, where the im2col fill must emit pure zero rows.
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
// must clamp to OW instead of overrunning the im2col row.
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
