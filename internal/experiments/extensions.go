package experiments

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/eden"
	"repro/internal/quant"
)

// RefreshExtension evaluates the paper's §2.3 third knob as an EDEN
// extension: stretch the refresh interval as far as the DNN's tolerable BER
// allows and report the refresh-energy reduction — the EDEN methodology
// applied to a parameter the paper discusses but does not evaluate.
func RefreshExtension() (Report, error) {
	r := Report{ID: "X1/Refresh", Title: "EDEN extension: refresh-interval stretching at the DNN's tolerable BER",
		Header: fmt.Sprintf("%-14s %10s %12s %14s %10s", "Model", "TolBER", "Interval", "RefreshEnergy", "Acc@BER")}
	vendor, _ := dram.VendorByName("A")
	em := fittedModel("A")
	for _, name := range []string{"LeNet", "SqueezeNet1.1"} {
		tm, err := dnn.Pretrained(name)
		if err != nil {
			return r, err
		}
		cfg := eden.DefaultCharacterize()
		cfg.MaxSamples = 40
		cfg.Repeats = 1
		cfg.SearchSteps = 6
		tol := eden.CoarseCharacterize(tm, tm.Net, em, cfg)
		if tol <= 0 {
			tol = 1e-5
		}
		ms := vendor.RefreshForBER(tol)
		frac := dram.RefreshEnergyFrac(ms)
		acc := eden.EvalWithModel(tm, tm.Net, em, vendor.RetentionBER(ms), quant.FP32, 60)
		r.Rows = append(r.Rows, fmt.Sprintf("%-14s %9.2e %10.0fms %13.1f%% %9.1f%%",
			name, tol, ms, (1-frac)*100, acc*100))
	}
	return r, nil
}

// BoundingMarginAblation sweeps the bounding logic's threshold margin, a
// trade-off with a cliff on both sides: too tight clips legitimate values,
// too loose lets implausible values through.
func BoundingMarginAblation() (Report, error) {
	r := Report{ID: "X2/Margin", Title: "Bounding threshold margin ablation (LeNet, FP32, BER 2e-3)",
		Header: fmt.Sprintf("%8s %9s", "Margin", "Acc")}
	tm, err := dnn.Pretrained("LeNet")
	if err != nil {
		return r, err
	}
	em := uniformModel(1)
	for _, margin := range []float32{1.0, 1.25, 1.5, 2.5, 10, 1000} {
		var sum float64
		for pass := 0; pass < 3; pass++ {
			corr := eden.NewSoftwareDRAM(em, quant.FP32)
			corr.BER = 2e-3
			corr.Calibrate(tm, 16, margin)
			for i := 0; i < pass; i++ {
				corr.NextPass()
			}
			sum += tm.Net.Accuracy(tm.ValSet, corr.EvalOptions(60))
		}
		r.Rows = append(r.Rows, fmt.Sprintf("%8.2f %8.1f%%", margin, sum/3*100))
	}
	return r, nil
}

// CurriculumStepAblation sweeps the curricular schedule's step length (the
// paper settles on 2 epochs per step, §3.2).
func CurriculumStepAblation() (Report, error) {
	r := Report{ID: "X3/Curriculum", Title: "Curriculum step-length ablation (LeNet, target BER 1e-2)",
		Header: fmt.Sprintf("%12s %9s", "StepEpochs", "Acc@BER")}
	tm, err := dnn.Pretrained("LeNet")
	if err != nil {
		return r, err
	}
	em := fittedModel("A")
	const target = 0.01
	for _, step := range []int{1, 2, 4} {
		rc := eden.DefaultRetrain(em, target)
		rc.StepEveryEpochs = step
		net := eden.Retrain(tm, rc)
		acc := eden.EvalWithModel(tm, net, em, target, quant.FP32, 60)
		r.Rows = append(r.Rows, fmt.Sprintf("%12d %8.1f%%", step, acc*100))
	}
	return r, nil
}
