package compute

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// forEachBackend runs f once per backend, as a subtest — and for gemm, the
// one backend built on the vector primitives, once per primitive
// implementation.
func forEachBackend(t *testing.T, f func(t *testing.T, b Backend)) {
	t.Helper()
	for _, b := range []Backend{Ref, Gemm, QGemm} {
		t.Run(b.Name(), func(t *testing.T) {
			if b == Gemm {
				forEachVecPath(t, func(t *testing.T) { f(t, b) })
				return
			}
			f(t, b)
		})
	}
}

// quantTol is the allowed absolute deviation from a reference value: zero
// for float backends, which are held bit-identical to Ref, and the
// symmetric-quantization error envelope (~1/127 per operand, so a few
// percent after two operands and a reduction) for QGemm.
func quantTol(bk Backend, want float32) float64 {
	if bk != QGemm {
		return 0
	}
	return 0.05*math.Abs(float64(want)) + 0.05
}

func TestMatMulKnownValues(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		a := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
		b := tensor.FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
		c := bk.MatMul(a, b)
		want := []float32{58, 64, 139, 154}
		for i, w := range want {
			if math.Abs(float64(c.Data[i]-w)) > quantTol(bk, w) {
				t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
			}
		}
	})
}

func TestMatMulTransBMatchesMatMul(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		r := tensor.NewRNG(1)
		a := tensor.New(3, 5)
		a.FillNormal(r, 1)
		bt := tensor.New(4, 5) // B transposed: n×k
		bt.FillNormal(r, 1)
		b := tensor.New(5, 4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 5; j++ {
				b.Set(bt.At(i, j), j, i)
			}
		}
		c1 := bk.MatMulTransB(a, bt)
		c2 := bk.MatMul(a, b)
		for i := range c1.Data {
			if math.Abs(float64(c1.Data[i]-c2.Data[i])) > 1e-4+quantTol(bk, c2.Data[i]) {
				t.Fatalf("mismatch at %d: %v vs %v", i, c1.Data[i], c2.Data[i])
			}
		}
	})
}

func TestConv2DIdentityKernel(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		in := tensor.New(1, 1, 3, 3)
		for i := range in.Data {
			in.Data[i] = float32(i)
		}
		w := tensor.New(1, 1, 1, 1)
		w.Data[0] = 1
		out := bk.Conv2D(in, w, nil, tensor.Conv2DParams{Stride: 1})
		if !out.Shape().Equal(tensor.Shape{1, 1, 3, 3}) {
			t.Fatalf("shape %v", out.Shape())
		}
		for i := range in.Data {
			if math.Abs(float64(out.Data[i]-in.Data[i])) > quantTol(bk, in.Data[i]) {
				t.Fatalf("identity conv altered data at %d: %v vs %v", i, out.Data[i], in.Data[i])
			}
		}
	})
}

func TestConv2DKnownValues(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		// 3x3 input, 2x2 kernel of ones => each output is sum of a 2x2 window.
		in := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
		w := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
		bias := tensor.FromSlice([]float32{10}, 1)
		out := bk.Conv2D(in, w, bias, tensor.Conv2DParams{Stride: 1})
		want := []float32{1 + 2 + 4 + 5 + 10, 2 + 3 + 5 + 6 + 10, 4 + 5 + 7 + 8 + 10, 5 + 6 + 8 + 9 + 10}
		for i, v := range want {
			if math.Abs(float64(out.Data[i]-v)) > quantTol(bk, v) {
				t.Fatalf("conv[%d] = %v, want %v", i, out.Data[i], v)
			}
		}
	})
}

func TestConv2DPaddingAndStride(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		in := tensor.New(1, 1, 4, 4)
		in.Fill(1)
		w := tensor.New(1, 1, 3, 3)
		w.Fill(1)
		out := bk.Conv2D(in, w, nil, tensor.Conv2DParams{Stride: 2, Padding: 1})
		if !out.Shape().Equal(tensor.Shape{1, 1, 2, 2}) {
			t.Fatalf("shape %v", out.Shape())
		}
		// Top-left window with padding covers 2x2 real cells.
		if math.Abs(float64(out.At(0, 0, 0, 0)-4)) > quantTol(bk, 4) {
			t.Fatalf("padded corner = %v, want 4", out.At(0, 0, 0, 0))
		}
		// Center-ish window at (1,1) covers rows 1-3, cols 1-3 entirely inside.
		if math.Abs(float64(out.At(0, 0, 1, 1)-9)) > quantTol(bk, 9) {
			t.Fatalf("interior = %v, want 9", out.At(0, 0, 1, 1))
		}
	})
}

func TestConv2DGrouped(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		// Depthwise: 2 channels, groups=2, each filter sees one channel.
		in := tensor.New(1, 2, 2, 2)
		for i := range in.Data {
			in.Data[i] = float32(i + 1)
		}
		w := tensor.New(2, 1, 1, 1)
		w.Data[0] = 2 // channel 0 doubled
		w.Data[1] = 3 // channel 1 tripled
		out := bk.Conv2D(in, w, nil, tensor.Conv2DParams{Stride: 1, Groups: 2})
		for i := 0; i < 4; i++ {
			if w := in.Data[i] * 2; math.Abs(float64(out.Data[i]-w)) > quantTol(bk, w) {
				t.Fatalf("group0[%d] = %v, want %v", i, out.Data[i], w)
			}
			if w := in.Data[4+i] * 3; math.Abs(float64(out.Data[4+i]-w)) > quantTol(bk, w) {
				t.Fatalf("group1[%d] = %v, want %v", i, out.Data[4+i], w)
			}
		}
	})
}

// TestConv2DBackwardNumeric compares analytic conv gradients with finite
// differences, per backend.
func TestConv2DBackwardNumeric(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		if bk == QGemm {
			// QGemm uses straight-through gradients (float backward through
			// the quantized forward); finite differences through the
			// quantization staircase are meaningless.
			t.Skip("straight-through estimator: no finite-difference check")
		}
		r := tensor.NewRNG(42)
		in := tensor.New(2, 3, 5, 5)
		in.FillNormal(r, 1)
		w := tensor.New(4, 3, 3, 3)
		w.FillNormal(r, 0.5)
		bias := tensor.New(4)
		bias.FillNormal(r, 0.1)
		p := tensor.Conv2DParams{Stride: 2, Padding: 1}

		loss := func() float64 {
			out := bk.Conv2D(in, w, bias, p)
			var s float64
			for _, v := range out.Data {
				s += float64(v) * float64(v) / 2
			}
			return s
		}
		out := bk.Conv2D(in, w, bias, p)
		dOut := out.Clone() // dL/dOut = out for L = ||out||²/2
		dIn, dW, dBias := bk.Conv2DBackward(in, w, true, dOut, p)

		const eps = 1e-2
		check := func(name string, param *tensor.Tensor, grad *tensor.Tensor, idx int) {
			orig := param.Data[idx]
			param.Data[idx] = orig + eps
			lp := loss()
			param.Data[idx] = orig - eps
			lm := loss()
			param.Data[idx] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(grad.Data[idx])) > 1e-1*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", name, idx, grad.Data[idx], num)
			}
		}
		for _, idx := range []int{0, 7, 33, 149} {
			check("dIn", in, dIn, idx)
		}
		for _, idx := range []int{0, 5, 50, 107} {
			check("dW", w, dW, idx)
		}
		for _, idx := range []int{0, 3} {
			check("dBias", bias, dBias, idx)
		}
	})
}

func TestDefaultAndByName(t *testing.T) {
	if got := Default(); got != Gemm {
		t.Fatalf("default backend is %s, want gemm", got.Name())
	}
	prev := Default()
	defer SetDefault(prev)
	if b := SetDefault(Ref); b != Ref || Default() != Ref {
		t.Fatal("SetDefault(Ref) did not install Ref")
	}
	if b := SetDefault(nil); b != Gemm {
		t.Fatal("SetDefault(nil) should reset to Gemm")
	}
}
