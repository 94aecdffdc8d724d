package compute_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/compute"
	"repro/internal/cpufeat"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/eden"
	"repro/internal/errormodel"
	"repro/internal/parallel"
	"repro/internal/pin"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// setBackend installs b as the process-wide compute backend for the rest of
// the test and restores the previous one afterwards.
func setBackend(t testing.TB, b compute.Backend) {
	t.Helper()
	prev := compute.Default()
	compute.SetDefault(b)
	t.Cleanup(func() { compute.SetDefault(prev) })
}

// forEachVecPath is package compute's helper of that name, for the tests
// that dnn's layers keep out of that package.
func forEachVecPath(t *testing.T, f func(t *testing.T)) {
	for _, path := range []string{"vec", "scalar"} {
		t.Run(path, func(t *testing.T) {
			if path == "vec" && !cpufeat.X86.HasAVX {
				t.Skip("no vector kernels on this build or CPU")
			}
			t.Cleanup(cpufeat.SetVec(path == "vec"))
			f(t)
		})
	}
}

// TestGemmBitIdenticalToRefOnZooBothVecPaths is internal/dnn's
// TestBackendsBitIdenticalOnZoo for the gemm backend with the vector
// primitives pinned on and then off: every zoo architecture must forward to
// Ref's bits either way, at several worker counts; the dnn test covers
// whichever path the host selects by itself.
func TestGemmBitIdenticalToRefOnZooBothVecPaths(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, spec := range dnn.Zoo {
		t.Run(spec.Name, func(t *testing.T) {
			net, err := dnn.BuildModel(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(2, net.InC, net.InH, net.InW)
			x.FillUniform(tensor.NewRNG(0xB17), -1, 1)

			parallel.SetWorkers(1)
			setBackend(t, compute.Ref)
			want := net.Forward(x, false, nil)

			setBackend(t, compute.Gemm)
			forEachVecPath(t, func(t *testing.T) {
				for _, w := range []int{1, 4} {
					parallel.SetWorkers(w)
					got := net.Forward(x, false, nil)
					if !got.Shape().Equal(want.Shape()) {
						t.Fatalf("workers=%d: shape %v != %v", w, got.Shape(), want.Shape())
					}
					for i := range want.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
							t.Fatalf("workers=%d: output[%d] = %v, want %v (bit-exact)", w, i, got.Data[i], want.Data[i])
						}
					}
				}
			})
		})
	}
}

// TestFCBiasAddBothVecPaths holds FC.Forward's bias add — one
// compute.Axpy(row, bias, 1) per sample — to the scalar out[i,j] += b[j] it
// replaced, on a bias row of −0, NaN, infinities, a denormal and the
// largest float, over outputs that are themselves ±0 where the input row is
// zero, at batch sizes on both sides of MatMulTransB's switch to the tile.
func TestFCBiasAddBothVecPaths(t *testing.T) {
	setBackend(t, compute.Gemm)
	forEachVecPath(t, func(t *testing.T) {
		rng := tensor.NewRNG(0xB1A5)
		const in, out = 7, 19 // two vectors of outputs and a scalar tail
		fc := dnn.NewFC("fc", in, out, rng)
		fc.Bias.W.FillUniform(rng, -1, 1)
		negZero := float32(math.Copysign(0, -1))
		copy(fc.Bias.W.Data, []float32{negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			1e-40, math.MaxFloat32, 0})
		copy(fc.Bias.W.Data[out-3:], []float32{negZero, float32(math.NaN()), float32(math.Inf(-1))})
		for _, n := range []int{1, 3, 7, 8, 17} {
			x := tensor.New(n, in)
			x.FillUniform(rng, -1, 1)
			clear(x.Data[:in]) // sample 0 reaches the bias add as a row of +0
			want := compute.Gemm.MatMulTransB(x, fc.Weight.W)
			for i := range want.Data {
				want.Data[i] += fc.Bias.W.Data[i%out]
			}
			got := fc.Forward(x, false)
			for i := range want.Data {
				g, w := got.Data[i], want.Data[i]
				if math.Float32bits(g) != math.Float32bits(w) && (g == g || w == w) {
					t.Fatalf("n=%d: output[%d] = %v (%#08x), scalar add gives %v (%#08x)", n, i, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	})
}

// hookCall is what one IFM hook invocation looked like from inside.
type hookCall struct {
	li          int
	name, shape string
}

// recorded wraps hook (nil: the identity) so that every call is logged.
func recorded(seq *[]hookCall, hook dnn.IFMHook) dnn.IFMHook {
	return func(li int, l dnn.Layer, x *tensor.Tensor) *tensor.Tensor {
		*seq = append(*seq, hookCall{li, l.Name(), x.Shape().String()})
		if hook == nil {
			return x
		}
		return hook(li, l, x)
	}
}

// TestFusedMatchesPerSampleOnZooBothVecPaths holds dnn.ForwardBatchFused —
// per-sample runs of ReLU/MaxPool/Flatten/Dropout on Clamp and MaxPool2x2,
// in place or into recycled slabs, fanned out over the samples — to serial
// per-sample Network.Forward: every zoo architecture, with no hook, with
// eden's copying and in-place corruption hooks and with a hook that
// replaces the feature map of some layers only, at batch sizes 1, 3 and 16,
// at 1, 2 and 4 workers, on the vector primitives and on their scalar
// bodies. Outputs must agree bit for bit and every sample's hook must see
// the same (layer index, layer, view shape) sequence as on the serial path.
// The serial reference is computed once, on the path the host selects, so
// the comparison also holds the two paths to each other.
func TestFusedMatchesPerSampleOnZooBothVecPaths(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	setBackend(t, compute.Gemm)
	corr := eden.NewSoftwareDRAM(errormodel.Uniform(2e-3), quant.Int8)
	pool := eden.NewClonePool(corr)
	subset := func(li int, _ dnn.Layer, x *tensor.Tensor) *tensor.Tensor {
		if li%3 != 1 {
			return x
		}
		y := x.Clone()
		y.Scale(0.5)
		return y
	}
	// Each mode hands sample i's hook to use and a function to call when
	// the sample is done.
	modes := []struct {
		name string
		hook func(i int) (dnn.IFMHook, func())
	}{
		{"none", nil},
		{"IFMHook", func(i int) (dnn.IFMHook, func()) {
			c := pool.Get(uint64(100 + i))
			return c.IFMHook(), func() { pool.Put(c) }
		}},
		{"IFMHookInPlace", func(i int) (dnn.IFMHook, func()) {
			c := pool.Get(uint64(100 + i))
			return c.IFMHookInPlace(), func() { pool.Put(c) }
		}},
		{"subset", func(int) (dnn.IFMHook, func()) { return subset, func() {} }},
	}
	batches, workers := []int{1, 3, 16}, []int{1, 2, 4}
	if testing.Short() {
		batches, workers = []int{3}, []int{1, 4}
	}
	for _, spec := range dnn.Zoo {
		net, err := dnn.BuildModel(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]*tensor.Tensor, 16)
		rng := tensor.NewRNG(0xF5ED)
		for i := range xs {
			xs[i] = tensor.New(1, net.InC, net.InH, net.InW)
			xs[i].FillUniform(rng, -1, 1)
		}
		for _, mode := range modes {
			t.Run(spec.Name+"/"+mode.name, func(t *testing.T) {
				parallel.SetWorkers(1)
				want := make([]*tensor.Tensor, len(xs))
				wantSeq := make([][]hookCall, len(xs))
				for i, x := range xs {
					var hook dnn.IFMHook
					if mode.hook != nil {
						h, done := mode.hook(i)
						hook = recorded(&wantSeq[i], h)
						defer done()
					}
					want[i] = net.Forward(x.Clone(), false, hook) // a clone: the in-place hook writes into it
				}
				forEachVecPath(t, func(t *testing.T) {
					for _, b := range batches {
						for _, w := range workers {
							parallel.SetWorkers(w)
							gotSeq := make([][]hookCall, b)
							done := make([]func(), b)
							var opt dnn.BatchOptions
							if mode.hook != nil {
								opt.HookFor = func(i int) dnn.IFMHook {
									h, d := mode.hook(i)
									done[i] = d
									return recorded(&gotSeq[i], h)
								}
								opt.Done = func(i int) { done[i]() }
							}
							got := net.ForwardBatchFused(xs[:b], opt)
							for i := range got {
								desc := fmt.Sprintf("batch %d workers %d sample %d", b, w, i)
								if !got[i].Shape().Equal(want[i].Shape()) {
									t.Fatalf("%s: shape %v, serial path gives %v", desc, got[i].Shape(), want[i].Shape())
								}
								for j := range want[i].Data {
									if math.Float32bits(got[i].Data[j]) != math.Float32bits(want[i].Data[j]) {
										t.Fatalf("%s: output[%d] = %v, serial path gives %v (bit-exact)", desc, j, got[i].Data[j], want[i].Data[j])
									}
								}
								if fmt.Sprint(gotSeq[i]) != fmt.Sprint(wantSeq[i]) {
									t.Fatalf("%s: hook calls %v, serial path made %v", desc, gotSeq[i], wantSeq[i])
								}
							}
						}
					}
				})
			})
		}
	}
}

// TestFCBackwardUnchanged compares dnn.FC's weight and bias gradients, which
// accumulate through compute.Axpy, against the loop the layer ran before,
// kept here verbatim: sample-major, a zero upstream gradient skipped, one
// multiply and one add per element. Two backward passes, so the second
// accumulates onto non-zero gradients; input widths with and without a
// vector body and a scalar tail; on both vec paths.
func TestFCBackwardUnchanged(t *testing.T) {
	setBackend(t, compute.Gemm)
	forEachVecPath(t, func(t *testing.T) {
		for _, dims := range [][2]int{{256, 512}, {192, 24}, {13, 7}, {5, 3}} {
			in, out := dims[0], dims[1]
			const n = 6
			rng := tensor.NewRNG(0xFCB)
			l := dnn.NewFC("fc", in, out, rng)
			wantW, wantB := tensor.New(out, in), tensor.New(out)
			for pass := 0; pass < 2; pass++ {
				x, dOut := tensor.New(n, in), tensor.New(n, out)
				x.FillUniform(rng, -2, 2)
				dOut.FillUniform(rng, -1, 1)
				for i := range dOut.Data {
					if rng.Intn(3) == 0 {
						dOut.Data[i] = 0
					}
				}
				l.Forward(x, true)
				l.Backward(dOut)
				for i := 0; i < n; i++ {
					xrow := x.Data[i*in : (i+1)*in]
					drow := dOut.Data[i*out : (i+1)*out]
					for j := 0; j < out; j++ {
						g := drow[j]
						if g == 0 {
							continue
						}
						wantB.Data[j] += g
						wrow := wantW.Data[j*in : (j+1)*in]
						for p := 0; p < in; p++ {
							wrow[p] += g * xrow[p]
						}
					}
				}
			}
			for i, got := range [][]float32{l.Weight.G.Data, l.Bias.G.Data} {
				want := [][]float32{wantW.Data, wantB.Data}[i]
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("fc %d→%d gradient tensor %d: element %d is %v, the old loop gives %v (bit-exact)", in, out, i, j, got[j], want[j])
					}
				}
			}
		}
	})
}

// TestTrainingPinnedBothVecPaths holds training bits still across commits.
// go test reads dnn.Pretrained models from a cache an older commit may have
// written, so nothing else in tier 1 does: a fresh LeNet, one epoch of
// forward, backward and SGD on 64 pattern samples (the run internal/dnn's
// TestParallelTrainingBitIdentical compares across worker counts), at 1, 2,
// 3 and 8 workers with the vector primitives on and then off, must end on
// the state CRC32 recorded at the commit before the backward weight sweep
// and FC.Backward moved onto axpy.
func TestTrainingPinnedBothVecPaths(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	setBackend(t, compute.Gemm)
	cfg := dataset.DefaultPatterns()
	cfg.Samples = 64
	forEachVecPath(t, func(t *testing.T) {
		for _, workers := range []int{1, 2, 3, 8} {
			parallel.SetWorkers(workers)
			net, err := dnn.BuildModel("LeNet")
			if err != nil {
				t.Fatal(err)
			}
			dnn.TrainClassifier(net, dataset.Patterns(cfg), dnn.TrainOptions{Epochs: 1, Batch: 8, LR: 0.01, Seed: 42})
			pin.Check(t, "train/LeNet/crc32", stateCRC(net))
		}
	})
}

// stateCRC is the CRC32 of every state tensor's float32 bits, in order.
func stateCRC(net *dnn.Network) uint32 {
	var states [][]float32
	for _, st := range net.StateTensors() {
		states = append(states, st.T.Data)
	}
	return pin.CRC(states...)
}

// TestDetectorTrainingPinned is TestTrainingPinnedBothVecPaths for the other
// half of the dataset loops: a fresh YOLO-Tiny, one TrainDetector epoch on 64
// box samples, then the state CRC32 and the bits of MAP over the same
// samples, at 1 and 2 workers, against the values recorded at the commit
// before TrainDetector and MAP became shells over the shared train and
// evaluate loops.
func TestDetectorTrainingPinned(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	setBackend(t, compute.Gemm)
	cfg := dataset.DefaultBoxes()
	cfg.Samples = 64
	for _, workers := range []int{1, 2} {
		parallel.SetWorkers(workers)
		net, err := dnn.BuildModel("YOLO-Tiny")
		if err != nil {
			t.Fatal(err)
		}
		ds := dataset.Boxes(cfg)
		dnn.TrainDetector(net, ds, dnn.TrainOptions{Epochs: 1, Batch: 8, LR: 0.01, Seed: 42})
		pin.Check(t, "train/YOLO-Tiny/crc32", stateCRC(net))
		pin.Check(t, "train/YOLO-Tiny/map-bits", math.Float64bits(net.MAP(ds, dnn.EvalOptions{})))
	}
}
