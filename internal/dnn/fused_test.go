package dnn

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// hookCall is what one IFM hook invocation looked like from inside.
type hookCall struct {
	li    int
	name  string
	shape string
}

// recordingHook returns a hook that logs every call into *seq and then, on
// every third layer, halves the feature map into a fresh tensor (the
// copy-back path of the fused executor), on every third-plus-one negates it
// in place and otherwise leaves it alone.
func recordingHook(seq *[]hookCall) IFMHook {
	return func(li int, l Layer, x *tensor.Tensor) *tensor.Tensor {
		*seq = append(*seq, hookCall{li, l.Name(), x.Shape().String()})
		switch li % 3 {
		case 0:
			y := x.Clone()
			y.Scale(0.5)
			return y
		case 1:
			x.Scale(-1)
		}
		return x
	}
}

func assertSameTensor(t *testing.T, desc string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", desc, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v, want %v (bit-exact)", desc, i, got.Data[i], want.Data[i])
		}
	}
}

// assertFusedMatchesSerial runs xs through net sample by sample with
// Network.Forward and then fused at several worker counts, with and without
// recordingHook, and demands the same output bits and the same hook calls
// per sample.
func assertFusedMatchesSerial(t *testing.T, net *Network, xs []*tensor.Tensor) {
	t.Helper()
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(1)
	for _, hooked := range []bool{false, true} {
		want := make([]*tensor.Tensor, len(xs))
		wantSeq := make([][]hookCall, len(xs))
		for i, x := range xs {
			var hook IFMHook
			if hooked {
				hook = recordingHook(&wantSeq[i])
			}
			want[i] = net.Forward(x.Clone(), false, hook)
		}
		for _, w := range []int{1, 2, 4} {
			parallel.SetWorkers(w)
			gotSeq := make([][]hookCall, len(xs))
			var opt BatchOptions
			if hooked {
				opt.HookFor = func(i int) IFMHook { return recordingHook(&gotSeq[i]) }
			}
			got := net.ForwardBatchFused(xs, opt)
			for i := range xs {
				desc := fmt.Sprintf("%s hooked=%v workers=%d sample %d", net.ModelName, hooked, w, i)
				assertSameTensor(t, desc, got[i], want[i])
				if fmt.Sprint(gotSeq[i]) != fmt.Sprint(wantSeq[i]) {
					t.Fatalf("%s: hook calls %v, serial path made %v", desc, gotSeq[i], wantSeq[i])
				}
			}
		}
	}
}

// TestFusedPoolFallbackShapes pins the executor on the pools the row kernel
// does not take — a 3×3/stride-2 window, odd extents under a 2×2 window, a
// 1×1 window that pools in place — and on two shape-changing layers back to
// back, which is what needs both of the pass's slabs.
func TestFusedPoolFallbackShapes(t *testing.T) {
	rng := tensor.NewRNG(0xF00)
	nets := []*Network{
		{ModelName: "pool3x3s2", InC: 3, InH: 16, InW: 16, Layers: []Layer{
			NewConv("conv1", 3, 4, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu1"},
			&MaxPool{LayerName: "pool1", K: 3, S: 2},
			NewConv("conv2", 4, 4, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: "relu2", Ceil: 6},
			&MaxPool{LayerName: "pool2", K: 2, S: 2}, // 7×7: odd extents
			&MaxPool{LayerName: "pool3", K: 1, S: 1},
			&Flatten{LayerName: "flatten"},
			NewFC("fc", 4*3*3, 5, rng),
		}},
		{ModelName: "oddHW", InC: 2, InH: 9, InW: 13, Layers: []Layer{
			&MaxPool{LayerName: "pool0", K: 2, S: 2},
			&MaxPool{LayerName: "pool1", K: 2, S: 1},
			&MaxPool{LayerName: "pool2", K: 2, S: 1},
			&MaxPool{LayerName: "pool3", K: 2, S: 2},
			&Dropout{LayerName: "drop", P: 0.5, RNG: tensor.NewRNG(1)},
			NewConv("conv", 2, 3, 1, tensor.Conv2DParams{}, false, rng),
			&ReLU{LayerName: "relu"},
		}},
	}
	for _, net := range nets {
		assertFusedMatchesSerial(t, net, batchInputs(5, net, 0xF01))
	}
}

// TestOtherSlabAvoidsCurrent: a shape-changing layer must never be handed
// the slab its input is in, however the slabs have been used and regrown.
// (Shrinking layers run sample after sample would survive sharing one, so
// the bit comparisons alone cannot be trusted to notice.)
func TestOtherSlabAvoidsCurrent(t *testing.T) {
	var p fusedPass
	a := p.otherSlab(make([]float32, 8), 8)
	b := p.otherSlab(a, 4)
	c := p.otherSlab(b, 16) // outgrows what a was cut from
	d := p.otherSlab(c, 2)
	if &b[0] == &a[0] || &c[0] == &b[0] || &d[0] == &c[0] {
		t.Fatal("otherSlab returned the slab holding its input")
	}
	if &d[0] != &b[0] || len(c) != 16 || len(d) != 2 {
		t.Fatalf("slabs not reused in turn: lens %d %d %d %d", len(a), len(b), len(c), len(d))
	}
}

// TestFusedMatchesSerialOnZoo is the same comparison on every zoo
// architecture at the batch sizes serving forms. internal/compute's
// TestFusedMatchesPerSampleOnZooBothVecPaths repeats it with the eden hooks
// on both implementations of the vector primitives.
func TestFusedMatchesSerialOnZoo(t *testing.T) {
	for _, spec := range Zoo {
		net, err := BuildModel(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		xs := batchInputs(16, net, 0xF02)
		for _, b := range []int{1, 3, 16} {
			if testing.Short() && b == 16 {
				continue
			}
			assertFusedMatchesSerial(t, net, xs[:b])
		}
	}
}

// The layers' training passes below are compared against the loops they ran
// before inference moved to compute.Clamp and compute.MaxPool2x2, kept here
// verbatim: training must not have moved a bit.

func TestReLUTrainingUnchanged(t *testing.T) {
	for _, ceil := range []float32{0, 6} {
		x := randInput(0x2E1, 3, 4, 5, 7)
		x.Scale(4)
		x.Data[0], x.Data[1], x.Data[2], x.Data[3] = float32(math.NaN()), float32(math.Copysign(0, -1)), 6, float32(math.Inf(1))
		want := x.Clone()
		mask := make([]bool, len(want.Data))
		for i, v := range want.Data {
			pass := v > 0 && (ceil == 0 || v < ceil)
			if !pass {
				if v <= 0 {
					want.Data[i] = 0
				} else {
					want.Data[i] = ceil
				}
			}
			mask[i] = pass
		}
		dOut := randInput(0x2E2, 3, 4, 5, 7)
		wantIn := dOut.Clone()
		for i := range wantIn.Data {
			if !mask[i] {
				wantIn.Data[i] = 0
			}
		}
		l := &ReLU{LayerName: "relu", Ceil: ceil}
		for _, train := range []bool{true, false} {
			assertSameTensor(t, fmt.Sprintf("ceil=%v train=%v forward", ceil, train), l.Forward(x, train), want)
		}
		l.Forward(x, true)
		assertSameTensor(t, fmt.Sprintf("ceil=%v backward", ceil), l.Backward(dOut), wantIn)
	}
}

func TestMaxPoolTrainingUnchanged(t *testing.T) {
	for _, c := range []struct{ k, s, h, w int }{{2, 2, 16, 16}, {2, 2, 8, 8}, {2, 2, 7, 9}, {3, 2, 9, 9}, {2, 1, 5, 5}, {1, 1, 3, 3}} {
		desc := fmt.Sprintf("k=%d s=%d %dx%d", c.k, c.s, c.h, c.w)
		x := randInput(0x3A1, 2, 3, c.h, c.w)
		for i := range x.Data { // ties, both zeros and NaNs, so tap order matters
			switch i % 5 {
			case 0:
				x.Data[i] = 0
			case 1:
				x.Data[i] = float32(math.Copysign(0, -1))
			case 2:
				if i%3 == 0 {
					x.Data[i] = float32(math.NaN())
				}
			}
		}
		n, ch, h, w := 2, 3, c.h, c.w
		oh, ow := (h-c.k)/c.s+1, (w-c.k)/c.s+1
		want := tensor.New(n, ch, oh, ow)
		arg := make([]int32, want.Size())
		for b := 0; b < n; b++ {
			for ci := 0; ci < ch; ci++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						best := float32(math.Inf(-1))
						bestIdx := int32(-1)
						for ky := 0; ky < c.k; ky++ {
							iy := oy*c.s + ky
							for kx := 0; kx < c.k; kx++ {
								ix := ox*c.s + kx
								idx := ((b*ch+ci)*h+iy)*w + ix
								if v := x.Data[idx]; v > best {
									best = v
									bestIdx = int32(idx)
								}
							}
						}
						o := ((b*ch+ci)*oh+oy)*ow + ox
						want.Data[o] = best
						arg[o] = bestIdx
					}
				}
			}
		}
		dOut := randInput(0x3A2, n, ch, oh, ow)
		wantIn := tensor.New(n, ch, h, w)
		for i, g := range dOut.Data {
			if arg[i] >= 0 {
				wantIn.Data[arg[i]] += g
			}
		}
		l := &MaxPool{LayerName: "pool", K: c.k, S: c.s}
		for _, train := range []bool{true, false} {
			assertSameTensor(t, fmt.Sprintf("%s train=%v forward", desc, train), l.Forward(x, train), want)
		}
		l.Forward(x, true)
		if strings.Contains(fmt.Sprint(arg), "-1") {
			continue // an all-NaN window has no argmax to scatter through
		}
		assertSameTensor(t, desc+" backward", l.Backward(dOut), wantIn)
	}
}

// TestFusedOutputsDoNotShareCapacity appends to one sample's output: the
// outputs are views of one slab, and growing one must not write into the
// next.
func TestFusedOutputsDoNotShareCapacity(t *testing.T) {
	net, err := BuildModel("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	outs := net.ForwardBatchFused(batchInputs(3, net, 0xCA9), BatchOptions{})
	want := append([]float32(nil), outs[1].Data...)
	grown := append(outs[0].Data, 12345)
	if grown[len(grown)-1] != 12345 || len(grown) != len(want)+1 {
		t.Fatalf("append produced %v", grown)
	}
	for j := range want {
		if outs[1].Data[j] != want[j] {
			t.Fatalf("appending to sample 0's output changed sample 1's element %d from %v to %v", j, want[j], outs[1].Data[j])
		}
	}
}

// TestFusedRejectsMixedShapes: a sample shaped unlike sample 0 used to be
// truncated or zero-padded into the batch tensor without a word.
func TestFusedRejectsMixedShapes(t *testing.T) {
	net, err := BuildModel("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(3, net, 0x5A)
	xs[2] = tensor.New(1, net.InC, net.InH, net.InW-1)
	defer func() {
		const want = "dnn: ForwardBatchFused: sample 2 has shape (1, 3, 16, 15), sample 0 has (1, 3, 16, 16)"
		if r := recover(); r != want {
			t.Fatalf("panic %q, want %q", r, want)
		}
	}()
	net.ForwardBatchFused(xs, BatchOptions{})
}

// TestFusedConcurrentPasses runs two fused passes at once over one network.
// The pass state lives on each call's stack and the slabs come from a pool,
// so under -race this is the proof that nothing is shared; it is not
// skipped under -short, which is how `make race` runs.
func TestFusedConcurrentPasses(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(4)
	net, err := BuildModel("VGG-16")
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]*tensor.Tensor{batchInputs(4, net, 0xC01), batchInputs(6, net, 0xC02)}
	want := make([][]*tensor.Tensor, len(batches))
	for k, xs := range batches {
		want[k] = make([]*tensor.Tensor, len(xs))
		for i, x := range xs {
			var seq []hookCall
			want[k][i] = net.Forward(x.Clone(), false, recordingHook(&seq))
		}
	}
	got := make([][]*tensor.Tensor, len(batches))
	var wg sync.WaitGroup
	for k := range batches {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				seqs := make([][]hookCall, len(batches[k]))
				got[k] = net.ForwardBatchFused(batches[k], BatchOptions{
					HookFor: func(i int) IFMHook { return recordingHook(&seqs[i]) },
				})
			}
		}(k)
	}
	wg.Wait()
	for k := range batches {
		for i := range batches[k] {
			assertSameTensor(t, fmt.Sprintf("pass %d sample %d", k, i), got[k][i], want[k][i])
		}
	}
}

// TestFusedVGGAllocations records what a steady-state fused batch-16 VGG
// pass allocates at two workers: the batch tensor, the outputs of the eight
// batch kernels, the output copy, headers, and what each of the backend's
// and the executor's fan-outs costs in closures and goroutines — measured
// 253 without hooks and 280 with a hook on every layer. Before the
// per-sample runs the hooked pass made 966 (two view headers per sample per
// layer, fresh ReLU and pooling outputs, argmax buffers); the clean one
// made 186, fewer than now because its ReLUs and pools never fanned out.
func TestFusedVGGAllocations(t *testing.T) {
	net, err := BuildModel("VGG-16")
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(16, net, 0xA110C)
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(2)
	for _, c := range []struct {
		name    string
		opt     BatchOptions
		ceiling float64
	}{
		{"clean", BatchOptions{}, 300},
		{"hooked", BatchOptions{HookFor: func(int) IFMHook {
			return func(_ int, _ Layer, x *tensor.Tensor) *tensor.Tensor { return x }
		}}, 330},
	} {
		net.ForwardBatchFused(xs, c.opt) // draw the slabs
		if avg := testing.AllocsPerRun(10, func() { net.ForwardBatchFused(xs, c.opt) }); avg > c.ceiling {
			t.Errorf("%s fused b16 VGG pass: %v allocations, ceiling %v", c.name, avg, c.ceiling)
		} else {
			t.Logf("%s fused b16 VGG pass: %v allocations", c.name, avg)
		}
	}
}
