package compute

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// benchConv measures one large mid-network convolution (batch 4, 64→128
// channels, 56×56, 3×3) with a third of the activations zeroed — the
// post-ReLU sparsity regime the kernels actually see.
func benchConv(b *testing.B, bk Backend) {
	r := tensor.NewRNG(1)
	in := tensor.New(4, 64, 56, 56)
	in.FillUniform(r, -1, 1)
	for i := range in.Data {
		if i%3 == 0 {
			in.Data[i] = 0
		}
	}
	w := tensor.New(128, 64, 3, 3)
	w.FillUniform(r, -1, 1)
	p := tensor.Conv2DParams{Stride: 1, Padding: 1}
	bk.Conv2D(in, w, nil, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk.Conv2D(in, w, nil, p)
	}
}

func BenchmarkConvGemm(b *testing.B)  { benchConv(b, Gemm) }
func BenchmarkConvQGemm(b *testing.B) { benchConv(b, QGemm) }

// convShape and fcShape are one layer of a zoo model as the layer
// benchmarks run it: a square stride-1 convolution, or an FC of k inputs
// and n outputs.
type convShape struct {
	name               string
	c, f, hw, khw, pad int
}

type fcShape struct {
	name string
	k, n int
}

// benchLayers measures the given shapes at one batch size, float gemm
// against the quantized kernels on adopted images. A third of the
// activations are zeroed to mimic post-ReLU inputs.
func benchLayers(b *testing.B, batch int, convs []convShape, fcs []fcShape) {
	qb := QGemm.(QuantBackend)
	for _, s := range convs {
		rng := tensor.NewRNG(7)
		in := tensor.New(batch, s.c, s.hw, s.hw)
		in.FillUniform(rng, -1, 1)
		for i := 0; i < len(in.Data); i += 3 {
			in.Data[i] = 0
		}
		w := tensor.New(s.f, s.c, s.khw, s.khw)
		w.FillUniform(rng, -1, 1)
		bias := tensor.New(s.f)
		p := tensor.Conv2DParams{Stride: 1, Padding: s.pad}
		iw := QuantizeInt8(w)
		b.Run(fmt.Sprintf("%s/gemm", s.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gemm.Conv2D(in, w, bias, p)
			}
		})
		b.Run(fmt.Sprintf("%s/qgemm", s.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qb.Conv2DQ(in, iw, bias, p)
			}
		})
	}
	for _, s := range fcs {
		rng := tensor.NewRNG(9)
		a := tensor.New(batch, s.k)
		a.FillUniform(rng, -1, 1)
		w := tensor.New(s.n, s.k)
		w.FillUniform(rng, -1, 1)
		iw := QuantizeInt8(w)
		b.Run(fmt.Sprintf("%s/gemm", s.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gemm.MatMulTransB(a, w)
			}
		})
		b.Run(fmt.Sprintf("%s/qgemm", s.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qb.MatMulTransBQ(a, iw)
			}
		})
	}
}

// BenchmarkVGGLayers measures every distinct conv and FC shape of the
// zoo's VGG-16 at serving batch 16 — the per-layer decomposition of the
// forward_batch_sps numbers the serving bench publishes.
func BenchmarkVGGLayers(b *testing.B) {
	benchLayers(b, 16, []convShape{
		{"conv1_1", 3, 16, 16, 3, 1},
		{"conv1_2", 16, 16, 16, 3, 1},
		{"conv2_1", 16, 32, 8, 3, 1},
		{"conv2_2", 32, 32, 8, 3, 1},
		{"conv3_1", 32, 64, 4, 3, 1},
	}, []fcShape{{"fc1", 256, 512}, {"fc2", 512, 128}})
}

// BenchmarkLeNetLayers is the small-model twin: LeNet's few-filter
// convolutions and tiny FCs, where staging a panel has the least work to
// hide behind, at the batch of one lenet_http serves and at a full batch.
func BenchmarkLeNetLayers(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("b%d", batch), func(b *testing.B) {
			benchLayers(b, batch, []convShape{
				{"conv1", 3, 6, 16, 5, 2},
				{"conv2", 6, 12, 8, 5, 2},
			}, []fcShape{{"fc1", 192, 24}, {"fc2", 24, 10}})
		})
	}
}
