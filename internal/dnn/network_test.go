package dnn

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func tinyPatterns(samples int) *dataset.Dataset {
	cfg := dataset.DefaultPatterns()
	cfg.Samples = samples
	return dataset.Patterns(cfg)
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float32{10, 0, 0, 0, 10, 0}, 2, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1})
	if loss > 0.01 {
		t.Fatalf("confident correct prediction loss = %v", loss)
	}
	// Gradient at the correct class is (p-1)/n < 0.
	if grad.At(0, 0) >= 0 || grad.At(1, 1) >= 0 {
		t.Fatal("gradient sign wrong at target")
	}
	lossBad, _ := SoftmaxCrossEntropy(logits, []int{1, 0})
	if lossBad < 5 {
		t.Fatalf("confident wrong prediction loss = %v, expected large", lossBad)
	}
}

func TestSoftmaxCrossEntropyGradNumeric(t *testing.T) {
	r := tensor.NewRNG(1)
	logits := tensor.New(3, 4)
	logits.FillNormal(r, 1)
	labels := []int{2, 0, 3}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-3
	for _, idx := range []int{0, 5, 11} {
		orig := logits.Data[idx]
		logits.Data[idx] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[idx] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[idx] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[idx])) > 1e-3 {
			t.Fatalf("grad[%d] analytic %v vs numeric %v", idx, grad.Data[idx], num)
		}
	}
}

func TestLeNetLearnsPatterns(t *testing.T) {
	ds := tinyPatterns(200)
	train, val := ds.Split(0.8)
	net := buildLeNet(tensor.NewRNG(1))
	stats := TrainClassifier(net, train, TrainOptions{Epochs: 10, Batch: 16, LR: 0.01, Seed: 1, Val: val})
	final := stats[len(stats)-1]
	if final.ValAcc < 0.6 {
		t.Fatalf("LeNet validation accuracy %.2f after training, want >= 0.6", final.ValAcc)
	}
	if stats[0].Loss <= final.Loss {
		// Loss should broadly decrease over training.
		t.Logf("warning: loss did not decrease (%v -> %v)", stats[0].Loss, final.Loss)
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	ds := tinyPatterns(60)
	run := func() []float32 {
		net := buildLeNet(tensor.NewRNG(9))
		TrainClassifier(net, ds, TrainOptions{Epochs: 2, Batch: 8, LR: 0.01, Seed: 5})
		return net.Params()[0].W.Data
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training diverged at weight %d", i)
		}
	}
}

func TestIFMHookSeesEveryLayer(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(2))
	x := tensor.New(1, 3, 16, 16)
	var visited []string
	net.Forward(x, false, func(i int, l Layer, t *tensor.Tensor) *tensor.Tensor {
		visited = append(visited, l.Name())
		return t
	})
	if len(visited) != len(net.Layers) {
		t.Fatalf("hook saw %d layers, want %d", len(visited), len(net.Layers))
	}
	if visited[0] != "conv1" {
		t.Fatalf("first layer %q", visited[0])
	}
}

func TestIFMHookCanAlterResult(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(2))
	ds := tinyPatterns(30)
	clean := net.Accuracy(ds, EvalOptions{})
	// A hook that zeroes the first conv's input destroys the signal.
	zeroed := net.Accuracy(ds, EvalOptions{Hook: func(i int, l Layer, x *tensor.Tensor) *tensor.Tensor {
		if i == 0 {
			z := x.Clone()
			z.Zero()
			return z
		}
		return x
	}})
	// With zero input the network emits constant logits; accuracy drops to
	// roughly chance.
	if zeroed > clean && zeroed > 0.3 {
		t.Fatalf("zeroing input did not hurt: clean %v zeroed %v", clean, zeroed)
	}
}

func TestEvalCorruptRestores(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(3))
	ds := tinyPatterns(20)
	orig := net.Params()[0].W.Data[0]
	net.Accuracy(ds, EvalOptions{Corrupt: func(n *Network) func() {
		p := n.Params()[0]
		saved := p.W.Data[0]
		p.W.Data[0] = 999
		return func() { p.W.Data[0] = saved }
	}})
	if net.Params()[0].W.Data[0] != orig {
		t.Fatal("corruption not restored after evaluation")
	}
}

func TestMaxSamplesLimits(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(4))
	ds := tinyPatterns(50)
	calls := 0
	net.Accuracy(ds, EvalOptions{Batch: 10, MaxSamples: 20, Hook: func(i int, l Layer, x *tensor.Tensor) *tensor.Tensor {
		if i == 0 {
			calls += x.Dim(0)
		}
		return x
	}})
	if calls != 20 {
		t.Fatalf("evaluated %d samples, want 20", calls)
	}
}

func TestZooBuildsAndForwards(t *testing.T) {
	for _, spec := range Zoo {
		net, err := BuildModel(spec.Name)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		x := tensor.New(2, net.InC, net.InH, net.InW)
		x.FillNormal(tensor.NewRNG(5), 1)
		out := net.Forward(x, false, nil)
		if out.Dim(0) != 2 {
			t.Fatalf("%s: batch dimension %d", spec.Name, out.Dim(0))
		}
		wantCols := net.Classes
		if net.Det != nil {
			wantCols = net.Det.OutputSize()
		}
		if out.Dim(1) != wantCols {
			t.Fatalf("%s: output width %d, want %d", spec.Name, out.Dim(1), wantCols)
		}
		if net.ParamCount() == 0 {
			t.Fatalf("%s: no parameters", spec.Name)
		}
		if net.IFMBytes(quant.FP32) == 0 {
			t.Fatalf("%s: no IFM bytes", spec.Name)
		}
	}
}

func TestZooBackwardRuns(t *testing.T) {
	// One training step on every zoo model exercises each composite
	// backward path.
	for _, spec := range Zoo {
		net, _ := BuildModel(spec.Name)
		x := tensor.New(2, net.InC, net.InH, net.InW)
		x.FillNormal(tensor.NewRNG(6), 1)
		net.ZeroGrad()
		out := net.Forward(x, true, nil)
		if spec.Task == Detect {
			samples := []dataset.BoxSample{
				{Class: 0, Box: dataset.Box{CX: 0.5, CY: 0.5, W: 0.4, H: 0.4}},
				{Class: 1, Box: dataset.Box{CX: 0.3, CY: 0.7, W: 0.2, H: 0.2}},
			}
			_, dOut := net.Det.YOLOLoss(out, samples)
			net.Backward(dOut)
		} else {
			_, dOut := SoftmaxCrossEntropy(out, []int{1, 2})
			net.Backward(dOut)
		}
		anyGrad := false
		for _, p := range net.Params() {
			if p.G.CountNonZero() > 0 {
				anyGrad = true
				break
			}
		}
		if !anyGrad {
			t.Fatalf("%s: backward produced no gradients", spec.Name)
		}
	}
}

func TestParamNamesUnique(t *testing.T) {
	for _, spec := range Zoo {
		net, _ := BuildModel(spec.Name)
		seen := map[string]bool{}
		for _, p := range net.Params() {
			if seen[p.Name] {
				t.Fatalf("%s: duplicate parameter name %q", spec.Name, p.Name)
			}
			seen[p.Name] = true
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := buildResNetMini(tensor.NewRNG(7))
	// Touch BN running stats so they are non-default.
	x := tensor.New(4, 3, 16, 16)
	x.FillNormal(tensor.NewRNG(8), 1)
	net.Forward(x, true, nil)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	net2 := buildResNetMini(tensor.NewRNG(99)) // different init
	if err := net2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	out1 := net.Forward(x, false, nil)
	out2 := net2.Forward(x, false, nil)
	for i := range out1.Data {
		if out1.Data[i] != out2.Data[i] {
			t.Fatalf("loaded network diverges at output %d", i)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(1))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := buildVGGMini(tensor.NewRNG(1))
	if err := other.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading LeNet weights into VGG should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(1))
	if err := net.Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage input should fail to load")
	}
}

// TestLoadShortNameAllocatesLittle feeds a model file whose first tensor
// name claims the longest length the loader accepts and then ends: the load
// must fail without first allocating the claimed 1 MiB.
func TestLoadShortNameAllocatesLittle(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(1))
	file := []byte(modelMagic)
	file = binary.LittleEndian.AppendUint32(file, uint32(len(net.StateTensors())))
	file = binary.LittleEndian.AppendUint32(file, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := net.Load(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("model file without name bytes accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 256<<10 {
		t.Fatalf("%d-byte model file allocated %d bytes before failing", len(file), grew)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	// Minimize (w-3)² with SGD+momentum.
	p := newParam("w", 1)
	sgd := &SGD{LR: 0.1, Momentum: 0.9}
	for i := 0; i < 200; i++ {
		p.G.Data[0] = 2 * (p.W.Data[0] - 3)
		sgd.Step([]*Param{p})
	}
	if math.Abs(float64(p.W.Data[0]-3)) > 1e-3 {
		t.Fatalf("converged to %v, want 3", p.W.Data[0])
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := newParam("w", 1)
	p.W.Data[0] = 10
	sgd := &SGD{LR: 0.1, Momentum: 0, WeightDecay: 0.5}
	for i := 0; i < 50; i++ {
		p.G.Data[0] = 0
		sgd.Step([]*Param{p})
	}
	if math.Abs(float64(p.W.Data[0])) > 1 {
		t.Fatalf("weight decay left %v", p.W.Data[0])
	}
}

func TestWeightBytesAndIFMBytes(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(1))
	if net.WeightBytes(quant.FP32) != net.ParamCount()*4 {
		t.Fatal("FP32 WeightBytes inconsistent with ParamCount")
	}
	if net.IFMBytes(quant.FP32) <= 3*16*16*4 {
		t.Fatalf("IFMBytes %d implausibly small", net.IFMBytes(quant.FP32))
	}
	// Narrow precisions must shrink the reported footprint: int8 is a
	// quarter of FP32 (modulo per-tensor byte rounding), int4 an eighth.
	// The old code hard-coded 4 bytes/param and reported FP32 numbers for
	// every precision.
	fp32 := net.WeightBytes(quant.FP32)
	for _, tc := range []struct {
		prec    quant.Precision
		divisor int
	}{{quant.Int16, 2}, {quant.Int8, 4}, {quant.Int4, 8}} {
		got := net.WeightBytes(tc.prec)
		want := fp32 / tc.divisor
		// Per-tensor rounding adds at most one byte per parameter tensor.
		if got < want || got > want+len(net.Params()) {
			t.Fatalf("%v WeightBytes = %d, want ~%d", tc.prec, got, want)
		}
	}
	if i8 := net.IFMBytes(quant.Int8); i8 >= net.IFMBytes(quant.FP32) {
		t.Fatalf("int8 IFMBytes %d not smaller than FP32", i8)
	}
}
