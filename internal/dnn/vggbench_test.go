package dnn

import (
	"testing"

	"repro/internal/compute"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// benchVGG measures a full batch-16 VGG-16 forward on one backend;
// quantized backends run the serving configuration, with int8 weight
// images adopted so the QuantBackend fast path is exercised end to end.
func benchVGG(b *testing.B, bk compute.Backend, adopt bool) {
	tm := MustPretrained("VGG-16")
	setBackend(b, bk)
	if adopt {
		tm.Net.AdoptQuantizedWeights(quant.Int8)
	}
	rng := tensor.NewRNG(0xF0)
	xs := make([]*tensor.Tensor, 16)
	for i := range xs {
		xs[i] = tensor.New(1, tm.Net.InC, tm.Net.InH, tm.Net.InW)
		xs[i].FillUniform(rng, -1, 1)
	}
	tm.Net.ForwardBatch(xs, BatchOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Net.ForwardBatch(xs, BatchOptions{})
	}
}

func BenchmarkVGGGemm(b *testing.B)  { benchVGG(b, compute.Gemm, false) }
func BenchmarkVGGQGemm(b *testing.B) { benchVGG(b, compute.QGemm, true) }
