package dnn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// The training loop's element-wise passes — ReLU's backward gate
// (TestReLUTrainingUnchanged), the 2×2 train pool with its argmax, the
// pool's backward scatter and SGD.Step's update — fan out over the pool.
// The tests hold each to the serial rule it replaced, at one and four
// workers, on tensors large enough to split into several chunks, seeded with
// the values a rewrite is likeliest to get wrong: NaN, ±0, ±Inf, subnormals
// and the ReLU6 ceiling itself.

// atWorkers runs f at one and at four workers, restoring the budget.
func atWorkers(t *testing.T, f func(desc string)) {
	t.Helper()
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, w := range []int{1, 4} {
		parallel.SetWorkers(w)
		f(fmt.Sprintf("workers=%d", w))
	}
}

// edgeValues are the inputs a gate or a max treats specially under a
// ceiling of ceil.
func edgeValues(ceil float32) []float32 {
	sub, maxSub := math.Float32frombits(1), math.Float32frombits(0x007fffff)
	return []float32{
		float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		sub, -sub, maxSub, -maxSub,
		ceil, math.Nextafter32(ceil, 0), math.Nextafter32(ceil, float32(math.Inf(1))),
	}
}

// withEdges is a normal tensor of the given dims whose every third element
// is the next of vals in turn.
func withEdges(seed uint64, vals []float32, dims ...int) *tensor.Tensor {
	x := randInput(seed, dims...)
	x.Scale(4)
	for i := 0; i < len(x.Data); i += 3 {
		x.Data[i] = vals[(i/3)%len(vals)]
	}
	return x
}

// TestTrainPoolMatchesSerialWalk: the train pool's output and argmax are
// tensor.MaxPool2DInto's, and its backward scatter is the serial += in
// output order — a plain store would land a −0 gradient as −0, and under
// overlapping windows would drop all but the last add.
func TestTrainPoolMatchesSerialWalk(t *testing.T) {
	for _, c := range []struct{ n, ch, h, w, k, s int }{
		{4, 64, 16, 16, 2, 2}, // the fanned-out 2×2 walk
		{4, 32, 9, 9, 2, 1},   // the serial walk, overlapping windows
	} {
		x := withEdges(0x9001, append(edgeValues(1), 1, 1, 1), c.n, c.ch, c.h, c.w)
		// All-NaN windows in the first planes, and ties between the taps of
		// the windows beside them.
		nan := float32(math.NaN())
		for p := 0; p < 3; p++ {
			row := p * c.h * c.w
			x.Data[row], x.Data[row+1], x.Data[row+c.w], x.Data[row+c.w+1] = nan, nan, nan, nan
			x.Data[row+2], x.Data[row+3], x.Data[row+c.w+2], x.Data[row+c.w+3] = 0, float32(math.Copysign(0, -1)), 0, float32(math.Copysign(0, -1))
		}
		planes, oh, ow := c.n*c.ch, (c.h-c.k)/c.s+1, (c.w-c.k)/c.s+1
		want := tensor.New(c.n, c.ch, oh, ow)
		wantArg := make([]int32, want.Size())
		tensor.MaxPool2DInto(want.Data, wantArg, x.Data, planes, c.h, c.w, c.k, c.s)
		if !math.IsInf(float64(want.Data[0]), -1) || wantArg[0] != -1 {
			t.Fatalf("setup: all-NaN window pooled to %v at %d, want -Inf at -1", want.Data[0], wantArg[0])
		}
		dOut := withEdges(0x9002, []float32{float32(math.Copysign(0, -1)), 1, -2}, c.n, c.ch, oh, ow)
		wantIn := tensor.New(x.Shape()...)
		for i, g := range dOut.Data {
			if wantArg[i] >= 0 {
				wantIn.Data[wantArg[i]] += g
			}
		}
		l := &MaxPool{LayerName: "pool", K: c.k, S: c.s}
		atWorkers(t, func(desc string) {
			desc = fmt.Sprintf("k=%d s=%d %s", c.k, c.s, desc)
			assertSameTensor(t, desc+" forward", l.Forward(x, true), want)
			for i, a := range wantArg {
				if l.arg[i] != a {
					t.Fatalf("%s: argmax %d is %d, want %d", desc, i, l.arg[i], a)
				}
			}
			assertSameTensor(t, desc+" backward", l.Backward(dOut), wantIn)
		})
	}
}

// TestSGDStepMatchesSerialLoop: two clipped steps with momentum and weight
// decay over a parameter several chunks long and one below the grain. The
// gradients are tripled before each step, so the second clips too.
func TestSGDStepMatchesSerialLoop(t *testing.T) {
	fresh := func() []*Param {
		ps := []*Param{newParam("big", 3, 4000), newParam("small", 7)}
		for i, p := range ps {
			p.W = withEdges(uint64(10*i+1), []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1)}, p.W.Shape()...)
			p.G = withEdges(uint64(10*i+2), []float32{float32(math.Copysign(0, -1)), math.Float32frombits(3)}, p.G.Shape()...)
		}
		return ps
	}
	o := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-3, MaxGradNorm: 1}
	want := fresh()
	triple := func(ps []*Param) {
		for _, p := range ps {
			p.G.Scale(3)
		}
	}
	for range 2 {
		triple(want)
		var sq float64
		for _, p := range want {
			for _, g := range p.G.Data {
				sq += float64(g) * float64(g)
			}
		}
		if norm := math.Sqrt(sq); norm > o.MaxGradNorm {
			for _, p := range want {
				p.G.Scale(float32(o.MaxGradNorm / norm))
			}
		} else {
			t.Fatalf("setup: gradient norm %v does not clip", norm)
		}
		lr, mu, wd := float32(o.LR), float32(o.Momentum), float32(o.WeightDecay)
		for _, p := range want {
			for i := range p.W.Data {
				g := p.G.Data[i] + wd*p.W.Data[i]
				v := mu*p.V.Data[i] + g
				p.V.Data[i] = v
				p.W.Data[i] -= lr * v
			}
		}
	}
	atWorkers(t, func(desc string) {
		got := fresh()
		for range 2 {
			triple(got)
			o.Step(got)
		}
		for j, p := range got {
			assertSameTensor(t, desc+" "+p.Name+".W", p.W, want[j].W)
			assertSameTensor(t, desc+" "+p.Name+".V", p.V, want[j].V)
			assertSameTensor(t, desc+" "+p.Name+".G", p.G, want[j].G)
		}
	})
}
