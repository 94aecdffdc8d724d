package dnn

import (
	"math"

	"repro/internal/dataset"
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
// then leaves the gradients untouched (callers zero them per batch).
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
		for i := range p.W.Data {
			g := p.G.Data[i] + wd*p.W.Data[i]
			v := mu*p.V.Data[i] + g
			p.V.Data[i] = v
			p.W.Data[i] -= lr * v
		}
	}
}

// TrainOptions configures TrainClassifier and TrainDetector. The corruption
// hooks are how EDEN's curricular retraining reaches into the loop:
// WeightCorrupt mutates weights before each forward pass (returning an undo
// function applied before the optimizer step, so updates always land on clean
// weights — the paper uses approximate DRAM only for the forward pass, §3.2),
// and Hook injects errors into IFMs.
type TrainOptions struct {
	Epochs        int
	Batch         int
	LR            float64
	Momentum      float64
	WeightDecay   float64
	MaxGradNorm   float64
	Seed          uint64
	EpochStart    func(epoch int)
	WeightCorrupt func(net *Network) (restore func())
	Hook          IFMHook
	// Val, when non-nil, is a classification set scored after every epoch
	// into EpochStats.ValAcc; nil keeps inner characterization loops fast.
	Val *dataset.Dataset
}

// EpochStats records training progress for one epoch. TrainAcc is top-1
// accuracy over the epoch's batches and stays zero for detectors.
type EpochStats struct {
	Epoch    int
	Loss     float64
	TrainAcc float64
	ValAcc   float64
}

// lossFunc scores a batch's raw network output: the mean loss, its gradient
// with respect to out, and how many of the batch's samples out classifies
// correctly (zero for a task with no top-1 notion).
type lossFunc func(out *tensor.Tensor) (loss float64, dOut *tensor.Tensor, hits int)

// train is the one training loop, the only place that knows how a dataset of
// n samples is walked: a Fisher-Yates shuffle per epoch from seed, batches of
// opt.Batch in that order, weights corrupted for the forward/backward pass
// and restored before the optimizer step. A task supplies gather, which
// assembles the samples at idx into an input tensor and returns the loss
// that scores the network's output against their targets.
func train(net *Network, n int, seed uint64, opt TrainOptions, gather func(idx []int) (*tensor.Tensor, lossFunc)) []EpochStats {
	if opt.Batch <= 0 {
		opt.Batch = 16
	}
	if opt.LR == 0 {
		opt.LR = 0.01
	}
	if opt.Momentum == 0 {
		opt.Momentum = 0.9
	}
	sgd := &SGD{LR: opt.LR, Momentum: opt.Momentum, WeightDecay: opt.WeightDecay, MaxGradNorm: opt.MaxGradNorm}
	rng := tensor.NewRNG(seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var stats []EpochStats
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		if opt.EpochStart != nil {
			opt.EpochStart(epoch)
		}
		// Fisher-Yates shuffle.
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		var lossSum float64
		batches, correct := 0, 0
		for start := 0; start < n; start += opt.Batch {
			x, lossOf := gather(order[start:min(start+opt.Batch, n)])
			net.ZeroGrad()
			var restore func()
			if opt.WeightCorrupt != nil {
				restore = opt.WeightCorrupt(net)
			}
			loss, dOut, hits := lossOf(net.Forward(x, true, opt.Hook))
			net.Backward(dOut)
			if restore != nil {
				restore()
			}
			sgd.Step(net.Params())
			lossSum += loss
			batches++
			correct += hits
		}
		st := EpochStats{Epoch: epoch, Loss: lossSum / float64(batches), TrainAcc: float64(correct) / float64(n)}
		if opt.Val != nil {
			st.ValAcc = net.Accuracy(opt.Val, EvalOptions{Batch: opt.Batch})
		}
		stats = append(stats, st)
	}
	return stats
}

// TrainClassifier trains net on ds with softmax cross-entropy and returns
// per-epoch statistics. Sample order is shuffled deterministically from
// opt.Seed.
func TrainClassifier(net *Network, ds *dataset.Dataset, opt TrainOptions) []EpochStats {
	return train(net, ds.Len(), opt.Seed^0x7261696e, opt, func(idx []int) (*tensor.Tensor, lossFunc) {
		x, labels := ds.Batch(idx)
		return x, func(logits *tensor.Tensor) (float64, *tensor.Tensor, int) {
			loss, dLogits := SoftmaxCrossEntropy(logits, labels)
			return loss, dLogits, countCorrect(logits, labels)
		}
	})
}
