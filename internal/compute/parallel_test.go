package compute

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// withWorkers runs f at each of several pool sizes, restoring the budget
// afterwards. Worker counts above GOMAXPROCS still exercise the concurrent
// code paths (goroutines interleave even on one core, which is what the
// race detector needs).
func withWorkers(t *testing.T, f func()) {
	t.Helper()
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, w := range []int{1, 2, 4, 7} {
		parallel.SetWorkers(w)
		f()
	}
}

func fillSeq(t *tensor.Tensor, seed uint64) {
	r := tensor.NewRNG(seed)
	t.FillUniform(r, -1, 1)
}

func assertSame(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	switch {
	case got == nil && want == nil:
		return
	case got == nil:
		t.Fatalf("%s: got nil, want a %v tensor", name, want.Shape())
	case want == nil:
		t.Fatalf("%s: got a %v tensor, want nil", name, got.Shape())
	}
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v != %v", name, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d is %v, want %v (bit-exact)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// serialRef runs f with a single worker, capturing the serial reference.
func serialRef[T any](f func() T) T {
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	return f()
}

func TestMatMulParallelBitIdentical(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		a := tensor.New(37, 53)
		b := tensor.New(53, 41)
		fillSeq(a, 1)
		fillSeq(b, 2)
		want := serialRef(func() *tensor.Tensor { return bk.MatMul(a, b) })
		withWorkers(t, func() {
			assertSame(t, "MatMul", bk.MatMul(a, b), want)
		})
	})
}

func TestMatMulTransBParallelBitIdentical(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		a := tensor.New(19, 64)
		b := tensor.New(47, 64)
		fillSeq(a, 3)
		fillSeq(b, 4)
		want := serialRef(func() *tensor.Tensor { return bk.MatMulTransB(a, b) })
		withWorkers(t, func() {
			assertSame(t, "MatMulTransB", bk.MatMulTransB(a, b), want)
		})
	})
}

func conv2DCase(t *testing.T, bk Backend, n, c, h, w, f, k int, p tensor.Conv2DParams) {
	t.Helper()
	in := tensor.New(n, c, h, w)
	groups := p.Groups
	if groups <= 0 {
		groups = 1
	}
	wt := tensor.New(f, c/groups, k, k)
	bias := tensor.New(f)
	fillSeq(in, 5)
	fillSeq(wt, 6)
	fillSeq(bias, 7)
	want := serialRef(func() *tensor.Tensor { return bk.Conv2D(in, wt, bias, p) })
	withWorkers(t, func() {
		assertSame(t, "Conv2D", bk.Conv2D(in, wt, bias, p), want)
	})

	dOut := tensor.New(want.Dim(0), want.Dim(1), want.Dim(2), want.Dim(3))
	fillSeq(dOut, 8)
	type grads struct{ dIn, dW, dB *tensor.Tensor }
	ref := serialRef(func() grads {
		dIn, dW, dB := bk.Conv2DBackward(in, wt, true, dOut, p)
		return grads{dIn, dW, dB}
	})
	withWorkers(t, func() {
		dIn, dW, dB := bk.Conv2DBackward(in, wt, true, dOut, p)
		assertSame(t, "Conv2DBackward dIn", dIn, ref.dIn)
		assertSame(t, "Conv2DBackward dW", dW, ref.dW)
		assertSame(t, "Conv2DBackward dBias", dB, ref.dB)
	})
}

func TestConv2DParallelBitIdentical(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		conv2DCase(t, bk, 4, 3, 16, 16, 8, 3, tensor.Conv2DParams{Stride: 1, Padding: 1})
	})
}

func TestConv2DStridedParallelBitIdentical(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		conv2DCase(t, bk, 3, 4, 15, 15, 6, 5, tensor.Conv2DParams{Stride: 2, Padding: 2})
	})
}

func TestConv2DGroupedParallelBitIdentical(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		// Depthwise: groups == channels, one output channel per group.
		conv2DCase(t, bk, 2, 8, 12, 12, 8, 3, tensor.Conv2DParams{Stride: 1, Padding: 1, Groups: 8})
	})
}

func TestSmallShapesTakeSerialPath(t *testing.T) {
	forEachBackend(t, func(t *testing.T, bk Backend) {
		// Below the cutoff the kernels must not fan out; the result is the
		// same either way, but this pins the fallback so tiny shapes stay
		// cheap.
		a := tensor.New(2, 3)
		b := tensor.New(3, 2)
		fillSeq(a, 9)
		fillSeq(b, 10)
		want := serialRef(func() *tensor.Tensor { return bk.MatMul(a, b) })
		withWorkers(t, func() {
			assertSame(t, "small MatMul", bk.MatMul(a, b), want)
		})
	})
}
