package dnn

import (
	"testing"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// BenchmarkVGGGemm measures a full batch-16 VGG-16 forward on gemm.
func BenchmarkVGGGemm(b *testing.B) {
	tm := MustPretrained("VGG-16")
	setBackend(b, compute.Gemm)
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
