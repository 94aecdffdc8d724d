package eden

import (
	"repro/internal/dnn"
	"repro/internal/memctrl"
	"repro/internal/parallel"
	"repro/internal/quant"

	"repro/internal/errormodel"
)

// RetrainConfig parameterizes curricular retraining (§3.2).
type RetrainConfig struct {
	// TargetBER is the bit error rate the DNN is being boosted toward.
	TargetBER float64
	// Epochs is the retraining length; the paper finds 10-15 epochs
	// sufficient for 5-10x tolerable-BER boosts (§6.4).
	Epochs int
	// StepEveryEpochs controls the curriculum: the injected error rate
	// rises one step every this many epochs (the paper observes good
	// convergence at 2, §3.2).
	StepEveryEpochs int
	// Curricular disables the ramp when false: the full target error rate
	// is injected from epoch 0 — the paper's non-curricular ablation that
	// exhibits accuracy collapse (Fig. 10 right).
	Curricular bool
	// Model is the (device-fitted) error model injected during the forward
	// pass; a poor-fit model reproduces Fig. 10 left.
	Model *errormodel.Model
	Prec  quant.Precision
	// Policy is the implausible-value correction applied during retraining.
	Policy memctrl.Policy
	LR     float64
	Batch  int
	Seed   uint64
}

// DefaultRetrain returns the configuration used throughout the evaluation.
func DefaultRetrain(m *errormodel.Model, targetBER float64) RetrainConfig {
	return RetrainConfig{
		TargetBER:       targetBER,
		Epochs:          12,
		StepEveryEpochs: 2,
		Curricular:      true,
		Model:           m,
		Prec:            quant.FP32,
		Policy:          memctrl.Zero,
		LR:              0.002,
		Batch:           16,
		Seed:            0xB005,
	}
}

// Retrain boosts tm's error tolerance by retraining a copy of its network
// with model-injected errors in the forward pass (approximate DRAM) while
// gradients always update clean weights (reliable DRAM, §3.2). It returns
// the boosted network; tm itself is not modified.
func Retrain(tm *dnn.TrainedModel, cfg RetrainConfig) *dnn.Network {
	net := tm.CloneNet()
	corr := NewSoftwareDRAM(cfg.Model, cfg.Prec)
	corr.SetPolicy(cfg.Policy)

	steps := 1
	if cfg.Curricular && cfg.StepEveryEpochs > 0 {
		steps = (cfg.Epochs + cfg.StepEveryEpochs - 1) / cfg.StepEveryEpochs
		if steps < 1 {
			steps = 1
		}
	}
	setEpoch := func(epoch int) {
		// Re-derive plausibility bounds from the evolving weights so the
		// bounding logic never clips legitimately grown values.
		corr.CalibrateNet(tm, net, 32, 0)
		ber := cfg.TargetBER
		if cfg.Curricular && steps > 1 {
			k := epoch/cfg.StepEveryEpochs + 1
			if k > steps {
				k = steps
			}
			ber = cfg.TargetBER * float64(k) / float64(steps)
		}
		corr.BER = ber
	}

	opt := dnn.TrainOptions{
		Epochs:      cfg.Epochs,
		Batch:       cfg.Batch,
		LR:          cfg.LR,
		Seed:        cfg.Seed,
		MaxGradNorm: 5,
		EpochStart:  setEpoch,
		WeightCorrupt: func(n *dnn.Network) func() {
			corr.NextPass()
			return corr.CorruptWeights(n)
		},
		Hook: corr.IFMHook(),
	}
	tm.Train(net, opt)
	return net
}

// EvalWithModel measures a network's task metric while exposed to
// model-injected errors at the given BER, with bounds calibrated from net —
// thresholds must describe the network actually being evaluated. It is
// evalAt's single-draw case.
func EvalWithModel(tm *dnn.TrainedModel, net *dnn.Network, m *errormodel.Model, ber float64, prec quant.Precision, maxSamples int) float64 {
	return SweepBER(tm, net, m, []float64{ber}, prec, maxSamples)[0]
}

// SweepBER runs EvalWithModel's probe at every BER concurrently — one
// operating point per worker, the natural fan-out of EDEN's
// accuracy-versus-BER sweeps. Results land in BER-indexed slots, so the
// returned curve is bit-identical to serial EvalWithModel calls at any
// worker count.
func SweepBER(tm *dnn.TrainedModel, net *dnn.Network, m *errormodel.Model, bers []float64, prec quant.Precision, maxSamples int) []float64 {
	cfg := CharacterizeConfig{Prec: prec, MaxSamples: maxSamples, Repeats: 1}
	bounds := probeBounds(tm, net)
	out := make([]float64, len(bers))
	parallel.ForEach(len(bers), func(i int) {
		out[i] = evalAt(tm, net, m, bers[i], cfg, nil, bounds)
	})
	return out
}
