package dnn

import (
	"fmt"
	"testing"

	"repro/internal/compute"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// largestCNN returns the zoo model with the largest parameter count — the
// workload where batched-inference fan-out matters most.
func largestCNN(b *testing.B) *Network {
	b.Helper()
	var best *Network
	for _, spec := range Zoo {
		net, err := BuildModel(spec.Name)
		if err != nil {
			b.Fatal(err)
		}
		if best == nil || net.ParamCount() > best.ParamCount() {
			best = net
		}
	}
	return best
}

// BenchmarkForwardBatch measures batched inference on the zoo's largest
// CNN across backends and worker counts. The ref/workers=1 case is the
// serial direct-convolution baseline; gemm is the im2col+GEMM lowering.
// Outputs are bit-identical across every cell of the matrix, so the
// comparison is apples-to-apples.
func BenchmarkForwardBatch(b *testing.B) {
	net := largestCNN(b)
	const batch = 16
	rng := tensor.NewRNG(0xBE7C)
	xs := make([]*tensor.Tensor, batch)
	for i := range xs {
		xs[i] = tensor.New(1, net.InC, net.InH, net.InW)
		xs[i].FillUniform(rng, -1, 1)
	}
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, bk := range []compute.Backend{compute.Ref, compute.Gemm} {
		setBackend(b, bk)
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("backend=%s/workers=%d", bk.Name(), w), func(b *testing.B) {
				parallel.SetWorkers(w)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					net.ForwardBatch(xs, BatchOptions{})
				}
			})
		}
	}
}

// BenchmarkForwardSingle measures one-sample latency, where the kernels'
// internal blocking (rather than sample fan-out) provides the speedup.
func BenchmarkForwardSingle(b *testing.B) {
	net := largestCNN(b)
	rng := tensor.NewRNG(0xBE7D)
	x := tensor.New(1, net.InC, net.InH, net.InW)
	x.FillUniform(rng, -1, 1)
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, bk := range []compute.Backend{compute.Ref, compute.Gemm} {
		setBackend(b, bk)
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("backend=%s/workers=%d", bk.Name(), w), func(b *testing.B) {
				parallel.SetWorkers(w)
				for i := 0; i < b.N; i++ {
					net.Forward(x, false, nil)
				}
			})
		}
	}
}
