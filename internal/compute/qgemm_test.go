package compute

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/pin"
	"repro/internal/tensor"
)

// These tests pin the quantized backend's numeric contract (see the doc on
// qgemmBackend): bit-identical across worker counts and between fused-batch
// and per-sample calls, while staying within the symmetric-quantization
// error envelope of the float backends.

// relL2 is the relative L2 distance between two equally-shaped tensors.
func relL2(got, want *tensor.Tensor) float64 {
	var num, den float64
	for i := range want.Data {
		d := float64(got.Data[i] - want.Data[i])
		num += d * d
		w := float64(want.Data[i])
		den += w * w
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// quantEnvelope is the documented closeness bound against the float
// backends: two int8-quantized operands leave roughly 1/127 of error per
// operand, so a few percent in aggregate.
const quantEnvelope = 0.03

func TestQGemmWorkerInvariance(t *testing.T) {
	r := tensor.NewRNG(0x9A01)
	type shape struct{ m, k, n int }
	for _, s := range []shape{{3, 7, 5}, {16, 64, 48}, {1, 256, 128}, {40, 96, 33}} {
		a := randomTensor(r, s.m, s.k)
		bt := randomTensor(r, s.n, s.k)
		var mt *tensor.Tensor
		atWorkerCounts(t, func() {
			got := QGemm.MatMulTransB(a, bt)
			if mt == nil {
				mt = got
				return
			}
			assertSame(t, fmt.Sprintf("qgemm MatMulTransB %v", s), got, mt)
		})
		if e := relL2(mt, Gemm.MatMulTransB(a, bt)); e > quantEnvelope {
			t.Fatalf("qgemm MatMulTransB %v: rel L2 error %v vs gemm", s, e)
		}
	}
}

func TestQGemmConv2DWorkerInvarianceAndEnvelope(t *testing.T) {
	r := tensor.NewRNG(0x9A02)
	for iter := 0; iter < 20; iter++ {
		stride := r.Intn(2) + 1
		k := r.Intn(4) + 1
		pad := r.Intn(k)
		groups := 1
		if r.Intn(3) == 0 {
			groups = 2
		}
		cg := r.Intn(5) + 1
		fPerG := r.Intn(5) + 1
		n := r.Intn(3) + 1
		h := k + r.Intn(12)
		w := k + r.Intn(12)
		p := tensor.Conv2DParams{Stride: stride, Padding: pad, Groups: groups}
		in := randomTensor(r, n, cg*groups, h, w)
		wt := randomTensor(r, fPerG*groups, cg, k, k)
		var bias *tensor.Tensor
		if r.Intn(2) == 0 {
			bias = randomTensor(r, fPerG*groups)
		}
		desc := fmt.Sprintf("qgemm Conv2D n=%d c=%d h=%d w=%d f=%d k=%d s=%d p=%d g=%d",
			n, cg*groups, h, w, fPerG*groups, k, stride, pad, groups)
		var pinned *tensor.Tensor
		atWorkerCounts(t, func() {
			got := QGemm.Conv2D(in, wt, bias, p)
			if pinned == nil {
				pinned = got
				return
			}
			assertSame(t, desc, got, pinned)
		})
		if e := relL2(pinned, Gemm.Conv2D(in, wt, bias, p)); e > quantEnvelope {
			t.Fatalf("%s: rel L2 error %v vs gemm", desc, e)
		}
	}
}

// TestQGemmBatchInvariance pins the per-sample quantization design: a fused
// batch must produce, sample for sample, the same bits as n independent
// single-sample calls — activation scales never cross samples.
func TestQGemmBatchInvariance(t *testing.T) {
	r := tensor.NewRNG(0x9A03)
	in := randomTensor(r, 4, 6, 9, 9)
	wt := randomTensor(r, 8, 6, 3, 3)
	bias := randomTensor(r, 8)
	p := tensor.Conv2DParams{Stride: 1, Padding: 1}
	batch := QGemm.Conv2D(in, wt, bias, p)
	per := batch.Size() / 4
	for b := 0; b < 4; b++ {
		single := tensor.FromSlice(in.Data[b*in.Size()/4:(b+1)*in.Size()/4], 1, 6, 9, 9)
		out := QGemm.Conv2D(single, wt, bias, p)
		for i := 0; i < per; i++ {
			if out.Data[i] != batch.Data[b*per+i] {
				t.Fatalf("sample %d elem %d: fused %v, solo %v", b, i, batch.Data[b*per+i], out.Data[i])
			}
		}
	}

	// MatMulTransB quantizes per row: batched rows == stacked single rows.
	a := randomTensor(r, 5, 32)
	bm := randomTensor(r, 12, 32)
	all := QGemm.MatMulTransB(a, bm)
	for i := 0; i < 5; i++ {
		row := tensor.FromSlice(a.Data[i*32:(i+1)*32], 1, 32)
		out := QGemm.MatMulTransB(row, bm)
		for j := 0; j < 12; j++ {
			if out.Data[j] != all.Data[i*12+j] {
				t.Fatalf("row %d col %d: batched %v, solo %v", i, j, all.Data[i*12+j], out.Data[j])
			}
		}
	}
}

// TestQGemmFloatEntriesPinned holds the two qgemm calls the benchmark
// harness times (its compute.qgemm_* kernel probes) to fixed output bits at
// the probes' shapes: VGG-16's conv2_2 at batch 16 and its fc1.
func TestQGemmFloatEntriesPinned(t *testing.T) {
	r := tensor.NewRNG(0xBE7C)
	uniform := func(dims ...int) *tensor.Tensor {
		x := tensor.New(dims...)
		x.FillUniform(r, -1, 1)
		return x
	}
	pad1 := tensor.Conv2DParams{Stride: 1, Padding: 1}
	cin, cw, cb := uniform(16, 32, 8, 8), uniform(32, 32, 3, 3), uniform(32)
	fa, fw := uniform(16, 256), uniform(512, 256)
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, w := range []int{1, 2} {
		parallel.SetWorkers(w)
		pin.Check(t, "qgemm/conv2d/crc32", pin.CRC(QGemm.Conv2D(cin, cw, cb, pad1).Data))
		pin.Check(t, "qgemm/matmul-transb/crc32", pin.CRC(QGemm.MatMulTransB(fa, fw).Data))
	}
}

// TestQGemmWideReductionFallback drives a reduction past the int32 overflow
// guard and checks the float fallback still honors the backend contract of
// worker-count invariance.
func TestQGemmWideReductionFallback(t *testing.T) {
	r := tensor.NewRNG(0x9A06)
	k := qSafeK + 1
	a := tensor.New(1, k)
	a.FillUniform(r, -1, 1)
	b := tensor.New(3, k)
	b.FillUniform(r, -1, 1)
	var pinned *tensor.Tensor
	atWorkerCounts(t, func() {
		got := QGemm.MatMulTransB(a, b)
		if pinned == nil {
			pinned = got
			return
		}
		assertSame(t, "wide-k fallback", got, pinned)
	})
	assertSame(t, "wide-k fallback matches gemm", pinned, Gemm.MatMulTransB(a, b))
}
