package dnn

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// SGD is a stochastic gradient descent optimizer with classical momentum,
// L2 weight decay and optional global-norm gradient clipping. Clipping
// matters during curricular retraining, where injected bit errors can
// produce outsized activations and hence outsized gradients.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	MaxGradNorm float64 // 0 disables clipping
}

// Step applies one update to every parameter from its accumulated gradient,
// then leaves the gradients untouched (callers zero them per batch). The
// order-dependent clipping sum stays serial; the per-element update fans out.
func (o *SGD) Step(params []*Param) {
	if o.MaxGradNorm > 0 {
		var sq float64
		for _, p := range params {
			for _, g := range p.G.Data {
				sq += float64(g) * float64(g)
			}
		}
		if norm := math.Sqrt(sq); norm > o.MaxGradNorm {
			scale := float32(o.MaxGradNorm / norm)
			for _, p := range params {
				p.G.Scale(scale)
			}
		}
	}
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	for _, p := range params {
		w, grad, vel := p.W.Data, p.G.Data, p.V.Data
		parallel.For(len(w), parallel.Grain(4), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				g := grad[i] + wd*w[i]
				v := mu*vel[i] + g
				vel[i] = v
				w[i] -= lr * v
			}
		})
	}
}

// TrainOptions configures TrainClassifier and TrainDetector. The corruption
// hooks are how EDEN's curricular retraining reaches into the loop:
// WeightCorrupt mutates weights before each forward pass (returning an undo
// function applied before the optimizer step, so updates always land on clean
// weights — the paper uses approximate DRAM only for the forward pass, §3.2),
// and Hook injects errors into IFMs. Hook only ever sees tensors the loop
// owns (gathered batches and fresh layer outputs), so it may corrupt them in
// place. The optimizer is SGD with momentum 0.9 and no weight decay.
type TrainOptions struct {
	Epochs        int
	Batch         int
	LR            float64
	MaxGradNorm   float64
	Seed          uint64
	EpochStart    func(epoch int)
	WeightCorrupt func(net *Network) (restore func())
	Hook          IFMHook
}

// train is the one training loop, the only place that knows how a dataset of
// n samples is walked: a Fisher-Yates shuffle per epoch from seed, batches of
// opt.Batch in that order, weights corrupted for the forward/backward pass
// and restored before the optimizer step. A task supplies gather, which
// assembles the samples at idx into an input tensor and returns the function
// that maps the network's output to the gradient of their mean loss.
func train(net *Network, n int, seed uint64, opt TrainOptions, gather func(idx []int) (x *tensor.Tensor, grad func(out *tensor.Tensor) *tensor.Tensor)) {
	if opt.Batch <= 0 {
		opt.Batch = 16
	}
	if opt.LR == 0 {
		opt.LR = 0.01
	}
	sgd := &SGD{LR: opt.LR, Momentum: 0.9, MaxGradNorm: opt.MaxGradNorm}
	rng := tensor.NewRNG(seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		if opt.EpochStart != nil {
			opt.EpochStart(epoch)
		}
		// Fisher-Yates shuffle.
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for start := 0; start < n; start += opt.Batch {
			x, grad := gather(order[start:min(start+opt.Batch, n)])
			net.ZeroGrad()
			var restore func()
			if opt.WeightCorrupt != nil {
				restore = opt.WeightCorrupt(net)
			}
			net.Backward(grad(net.Forward(x, true, opt.Hook)))
			if restore != nil {
				restore()
			}
			sgd.Step(net.Params())
		}
	}
}

// TrainClassifier trains net on ds with softmax cross-entropy. Sample order
// is shuffled deterministically from opt.Seed.
func TrainClassifier(net *Network, ds *dataset.Dataset, opt TrainOptions) {
	train(net, ds.Len(), opt.Seed^0x7261696e, opt, func(idx []int) (*tensor.Tensor, func(*tensor.Tensor) *tensor.Tensor) {
		x, labels := ds.Batch(idx)
		return x, func(logits *tensor.Tensor) *tensor.Tensor {
			_, dLogits := SoftmaxCrossEntropy(logits, labels)
			return dLogits
		}
	})
}
