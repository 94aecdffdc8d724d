package compute

import (
	"runtime"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// backwardShape is one Conv2DBackward call: input n×c×h×w, f filters of
// k×k over c/groups channels.
type backwardShape struct {
	name                                  string
	n, c, h, w, f, k, stride, pad, groups int
}

// macs is the multiply-accumulate count the kernels compare against
// parallelCutoff.
func (s backwardShape) macs() int {
	oh := tensor.ConvOutDim(s.h, s.k, s.stride, s.pad)
	ow := tensor.ConvOutDim(s.w, s.k, s.stride, s.pad)
	return s.n * s.f * oh * ow * (s.c / s.groups) * s.k * s.k
}

// zooBackwardShapes are the backward calls training actually makes at the
// zoo's batch of 16 — the VGG and LeNet convolutions the benchmark's cold
// set-up trains, one ResNet 1×1 projection and MobileNet's five depthwise
// convolutions (k spans 9, one filter per group: the shapes where staging
// has the least arithmetic to pay for it) — plus the shape internal/bench
// times as compute.gemm_conv2d_backward_ms.
var zooBackwardShapes = []backwardShape{
	{"probe_8x32x28_f64", 8, 32, 28, 28, 64, 3, 1, 1, 1},
	{"vgg_conv1_1", 16, 3, 16, 16, 16, 3, 1, 1, 1},
	{"vgg_conv1_2", 16, 16, 16, 16, 16, 3, 1, 1, 1},
	{"vgg_conv2_1", 16, 16, 8, 8, 32, 3, 1, 1, 1},
	{"vgg_conv2_2", 16, 32, 8, 8, 32, 3, 1, 1, 1},
	{"vgg_conv3_1", 16, 32, 4, 4, 64, 3, 1, 1, 1},
	{"lenet_conv1", 16, 3, 16, 16, 6, 5, 1, 2, 1},
	{"lenet_conv2", 16, 6, 8, 8, 12, 5, 1, 2, 1},
	{"resnet_proj_1x1_s2", 16, 16, 16, 16, 32, 1, 2, 0, 1},
	{"mobilenet_ir1_dw", 16, 8, 16, 16, 8, 3, 1, 1, 8},
	{"mobilenet_ir2_dw_s2", 16, 32, 16, 16, 32, 3, 2, 1, 32},
	{"mobilenet_ir3_dw", 16, 64, 8, 8, 64, 3, 1, 1, 64},
	{"mobilenet_ir4_dw_s2", 16, 64, 8, 8, 64, 3, 2, 1, 64},
	{"mobilenet_ir5_dw", 16, 96, 4, 4, 96, 3, 1, 1, 96},
}

// tensors builds the call's operands: dense input and weights, and an
// upstream gradient with half its entries zero, the way a ReLU leaves it.
func (s backwardShape) tensors(seed uint64) (in, w, dOut *tensor.Tensor, p tensor.Conv2DParams) {
	r := tensor.NewRNG(seed)
	p = tensor.Conv2DParams{Stride: s.stride, Padding: s.pad, Groups: s.groups}
	in = tensor.New(s.n, s.c, s.h, s.w)
	in.FillUniform(r, -1, 1)
	w = tensor.New(s.f, s.c/s.groups, s.k, s.k)
	w.FillUniform(r, -1, 1)
	dOut = tensor.New(Ref.Conv2D(in, w, nil, p).Shape()...)
	dOut.FillUniform(r, -1, 1)
	for i := range dOut.Data {
		if r.Intn(2) == 0 {
			dOut.Data[i] = 0
		}
	}
	return in, w, dOut, p
}

// BenchmarkConv2DBackward times the lowered backward pass on every shape of
// zooBackwardShapes; bytes/op counts the operands and the three gradients
// once each. Run it with -cpu 1,2: the sweep fans out over the pool, whose
// budget follows -cpu here (it is otherwise fixed at process start).
func BenchmarkConv2DBackward(b *testing.B) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(runtime.GOMAXPROCS(0))
	for _, s := range zooBackwardShapes {
		in, w, dOut, p := s.tensors(11)
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(4 * (2*in.Size() + 2*w.Size() + dOut.Size() + s.f)))
			Gemm.Conv2DBackward(in, w, true, dOut, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm.Conv2DBackward(in, w, true, dOut, p)
			}
		})
	}
}
