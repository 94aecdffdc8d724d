package experiments

import (
	"fmt"
	"sync"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/eden"
	"repro/internal/errormodel"
	"repro/internal/memctrl"
	"repro/internal/parallel"
	"repro/internal/quant"
)

// opPoint labels one DRAM operating point of a sweep. The voltage and tRCD
// sweeps probe each point independently — one operating point per worker —
// with per-probe network clones, because weight corruption mutates the
// network under test in place.
type opPoint struct {
	label string
	op    dram.OperatingPoint
}

// vddAndTRCDPoints builds the standard sweep: one point per supply voltage,
// then one per tRCD reduction.
func vddAndTRCDPoints(vdds, trcds []float64) []opPoint {
	var pts []opPoint
	for _, vdd := range vdds {
		op := dram.Nominal()
		op.VDD = vdd
		pts = append(pts, opPoint{fmt.Sprintf("VDD=%.2fV", vdd), op})
	}
	for _, trcd := range trcds {
		op := dram.Nominal()
		op.Timing.TRCD = trcd
		pts = append(pts, opPoint{fmt.Sprintf("tRCD=%.1fns", trcd), op})
	}
	return pts
}

// deviceFor builds the standard experiment module for a vendor.
func deviceFor(vendor string, seed uint64) *dram.Device {
	v, err := dram.VendorByName(vendor)
	if err != nil {
		panic(err)
	}
	return dram.NewDevice(dram.DefaultGeometry(), v, seed)
}

var (
	fittedMu    sync.Mutex
	fittedCache = map[string]*errormodel.Model{}
)

// fittedModel profiles vendor's module once and caches the selected model.
func fittedModel(vendor string) *errormodel.Model {
	fittedMu.Lock()
	defer fittedMu.Unlock()
	if m, ok := fittedCache[vendor]; ok {
		return m
	}
	d := deviceFor(vendor, 0xF17)
	m := eden.ProfileAndFit(d, 1.05, 64, 0xF17)
	fittedCache[vendor] = m
	return m
}

// deviceMetric evaluates a model's metric with all tensors round-tripped
// through a device at op.
func deviceMetric(tm *dnn.TrainedModel, net *dnn.Network, vendor string, op dram.OperatingPoint, maxSamples int) float64 {
	d := deviceFor(vendor, 0xF17)
	d.SetOperatingPoint(op)
	corr := eden.NewDeviceDRAM(d, quant.FP32)
	// Pre-place with precision-aware footprints; an overflow just means the
	// scaled-down module reuses rows, which preserves error statistics.
	_ = corr.PlaceNetwork(net, 16)
	corr.Calibrate(tm, 16, 0)
	return tm.MetricOf(net, corr.EvalOptions(maxSamples))
}

// Figure7ModelValidation reproduces Fig. 7: LeNet accuracy on the
// (simulated) real device versus accuracy under the fitted Error Model 0,
// across voltage and tRCD sweeps for all three vendors.
func Figure7ModelValidation() (Report, error) {
	r := Report{ID: "E5/Fig7", Title: "LeNet accuracy: device-in-the-loop vs fitted error model",
		Header: fmt.Sprintf("%-7s %-12s %9s %9s", "Vendor", "Point", "Device", "Model")}
	tm, err := dnn.Pretrained("LeNet")
	if err != nil {
		return r, err
	}
	for _, vendor := range []string{"A", "B", "C"} {
		v, _ := dram.VendorByName(vendor)
		em := fittedModel(vendor)
		pts := vddAndTRCDPoints([]float64{1.20, 1.10, 1.05}, []float64{9.0, 7.5, 6.0})
		rows := make([]string, len(pts))
		parallel.ForEach(len(pts), func(i int) {
			p := pts[i]
			dev := deviceMetric(tm, tm.CloneNet(), vendor, p.op, 60)
			ber := v.ExpectedBER(p.op)
			mod := eden.EvalWithModel(tm, tm.CloneNet(), em, ber, quant.FP32, 60)
			rows[i] = fmt.Sprintf("%-7s %-12s %8.1f%% %8.1f%%", vendor, p.label, dev*100, mod*100)
		})
		r.Rows = append(r.Rows, rows...)
	}
	return r, nil
}

// Figure8ToleranceCurves reproduces Fig. 8: baseline ResNet accuracy across
// BER for all four error models and four precisions.
func Figure8ToleranceCurves() (Report, error) {
	r := Report{ID: "E6/Fig8", Title: "ResNet accuracy vs BER, 4 error models x 4 precisions",
		Header: fmt.Sprintf("%-14s %-6s %9s %8s", "ErrorModel", "Prec", "BER", "Acc")}
	tm, err := dnn.Pretrained("ResNet101")
	if err != nil {
		return r, err
	}
	models := map[string]*errormodel.Model{
		"Error Model 0": uniformModel(1),
		"Error Model 1": bitlineModel(),
		"Error Model 2": wordlineModel(),
		"Error Model 3": {Kind: errormodel.Model3, Seed: 3, RowBits: 16384, P: 1, FV1: 1.6, FV0: 0.4},
	}
	bers := []float64{1e-4, 1e-3, 1e-2, 5e-2, 1e-1}
	for _, name := range []string{"Error Model 0", "Error Model 1", "Error Model 2", "Error Model 3"} {
		em := models[name]
		for _, prec := range []quant.Precision{quant.Int4, quant.Int8, quant.Int16, quant.FP32} {
			accs := eden.SweepBER(tm, tm.Net, em, bers, prec, 40)
			for i, ber := range bers {
				r.Rows = append(r.Rows, fmt.Sprintf("%-14s %-6s %9.0e %7.1f%%", name, prec, ber, accs[i]*100))
			}
		}
	}
	return r, nil
}

func bitlineModel() *errormodel.Model {
	m := &errormodel.Model{Kind: errormodel.Model1, Seed: 1, RowBits: 16384,
		PB: make([]float64, errormodel.Groups), FB: make([]float64, errormodel.Groups)}
	// Weakness concentrated on a quarter of the bitline groups: with
	// aligned values, the same in-value bit positions fail repeatedly (the
	// MSB-alignment effect of §6.3).
	for g := range m.PB {
		if g%4 == 0 {
			m.PB[g] = 1
			m.FB[g] = 4
		}
	}
	return m
}

func wordlineModel() *errormodel.Model {
	m := &errormodel.Model{Kind: errormodel.Model2, Seed: 2, RowBits: 16384,
		PW: make([]float64, errormodel.Groups), FW: make([]float64, errormodel.Groups)}
	for g := range m.PW {
		if g%4 == 0 {
			m.PW[g] = 1
			m.FW[g] = 4
		}
	}
	return m
}

var (
	boostedMu    sync.Mutex
	boostedCache = map[string]*dnn.Network{}
)

// boostedLeNet retrains LeNet once against vendor A's fitted model.
func boostedLeNet() (*dnn.TrainedModel, *dnn.Network, error) {
	tm, err := dnn.Pretrained("LeNet")
	if err != nil {
		return nil, nil, err
	}
	boostedMu.Lock()
	defer boostedMu.Unlock()
	if net, ok := boostedCache["LeNet"]; ok {
		return tm, net, nil
	}
	em := fittedModel("A")
	// The fitted model concentrates errors on a fixed weak-cell population,
	// so the effective per-weak-cell flip rate at a given aggregate BER is
	// much higher than under uniform injection; a gentler target keeps the
	// boosted network's clean accuracy intact (the paper boosts toward the
	// device's operating range, not an arbitrary rate).
	rc := eden.DefaultRetrain(em, 0.004)
	net := eden.Retrain(tm, rc)
	boostedCache["LeNet"] = net
	return tm, net, nil
}

// Figure9BoostedOnDevice reproduces Fig. 9: baseline versus boosted LeNet
// accuracy on the device across voltage and tRCD reductions.
func Figure9BoostedOnDevice() (Report, error) {
	r := Report{ID: "E7/Fig9", Title: "LeNet on device: baseline vs curricularly boosted",
		Header: fmt.Sprintf("%-12s %9s %9s", "Point", "Baseline", "Boosted")}
	tm, boosted, err := boostedLeNet()
	if err != nil {
		return r, err
	}
	pts := vddAndTRCDPoints([]float64{1.35, 1.20, 1.10, 1.05}, []float64{12.5, 9.0, 7.5, 6.5})
	rows := make([]string, len(pts))
	parallel.ForEach(len(pts), func(i int) {
		p := pts[i]
		base := deviceMetric(tm, tm.CloneNet(), "A", p.op, 60)
		boost := deviceMetric(tm, tm.CloneNetFrom(boosted), "A", p.op, 60)
		rows[i] = fmt.Sprintf("%-12s %8.1f%% %8.1f%%", p.label, base*100, boost*100)
	})
	r.Rows = append(r.Rows, rows...)
	return r, nil
}

// Figure10RetrainingAblation reproduces Fig. 10: (left) retraining with a
// good-fit versus poor-fit error model, (right) curricular versus
// non-curricular retraining — accuracy versus BER curves.
func Figure10RetrainingAblation() (Report, error) {
	r := Report{ID: "E8/Fig10", Title: "Retraining ablations: model fit (left), curriculum (right)",
		Header: fmt.Sprintf("%-22s %9s %8s", "Variant", "BER", "Acc")}
	tm, err := dnn.Pretrained("LeNet")
	if err != nil {
		return r, err
	}
	goodFit := fittedModel("A") // matches the evaluation device
	poorFit := bitlineModel()   // wrong spatial structure
	const target = 0.004

	variants := []struct {
		name  string
		train func() *dnn.Network
	}{
		{"baseline", func() *dnn.Network { return tm.Net }},
		{"good-fit retrain", func() *dnn.Network {
			rc := eden.DefaultRetrain(goodFit, target)
			return eden.Retrain(tm, rc)
		}},
		{"poor-fit retrain", func() *dnn.Network {
			rc := eden.DefaultRetrain(poorFit, target)
			return eden.Retrain(tm, rc)
		}},
		{"curricular", func() *dnn.Network {
			rc := eden.DefaultRetrain(goodFit, target)
			return eden.Retrain(tm, rc)
		}},
		{"non-curricular", func() *dnn.Network {
			rc := eden.DefaultRetrain(goodFit, target)
			rc.Curricular = false
			return eden.Retrain(tm, rc)
		}},
	}
	// Variants are independent retraining runs; they fan out across the
	// pool and each variant's BER curve fans out again inside SweepBER.
	bers := []float64{1e-3, 5e-3, 1e-2, 2e-2}
	blocks := make([][]string, len(variants))
	parallel.ForEach(len(variants), func(vi int) {
		v := variants[vi]
		net := v.train()
		accs := eden.SweepBER(tm, net, goodFit, bers, quant.FP32, 60)
		block := make([]string, len(bers))
		for i, ber := range bers {
			block[i] = fmt.Sprintf("%-22s %9.0e %7.1f%%", v.name, ber, accs[i]*100)
		}
		blocks[vi] = block
	})
	for _, block := range blocks {
		r.Rows = append(r.Rows, block...)
	}
	return r, nil
}

var (
	fineMu    sync.Mutex
	fineCache map[string]float64
	fineBase  float64
)

// fineGrainedResNet runs fine-grained characterization on ResNet once.
func fineGrainedResNet() (map[string]float64, float64, error) {
	fineMu.Lock()
	defer fineMu.Unlock()
	if fineCache != nil {
		return fineCache, fineBase, nil
	}
	tm, err := dnn.Pretrained("ResNet101")
	if err != nil {
		return nil, 0, err
	}
	em := fittedModel("A")
	cfg := eden.DefaultCharacterize()
	cfg.MaxSamples = 30
	cfg.Repeats = 1
	cfg.SearchSteps = 6
	coarse := eden.CoarseCharacterize(tm, tm.Net, em, cfg)
	if coarse <= 0 {
		coarse = 1e-4
	}
	fineCache = eden.FineCharacterize(tm, tm.Net, em, coarse, cfg, 4)
	fineBase = coarse
	return fineCache, fineBase, nil
}

// Figure11FineGrained reproduces Fig. 11: per-IFM and per-weight tolerable
// BERs for ResNet, ordered by network depth.
func Figure11FineGrained() (Report, error) {
	r := Report{ID: "E9/Fig11", Title: "Fine-grained tolerable BER per ResNet data type (depth order)",
		Header: fmt.Sprintf("%-34s %10s", "Data", "TolBER")}
	tol, coarse, err := fineGrainedResNet()
	if err != nil {
		return r, err
	}
	tm, _ := dnn.Pretrained("ResNet101")
	for _, d := range eden.EnumerateData(tm.Net, quant.FP32) {
		r.Rows = append(r.Rows, fmt.Sprintf("%-34s %9.3f%%", d.ID, tol[d.ID]*100))
	}
	r.Rows = append(r.Rows, fmt.Sprintf("(coarse bootstrap BER %.3f%%)", coarse*100))
	return r, nil
}

// Figure12Mapping reproduces Fig. 12: the Algorithm-1 assignment of ResNet
// data types onto four voltage partitions.
func Figure12Mapping() (Report, error) {
	r := Report{ID: "E10/Fig12", Title: "ResNet data mapped to 4 voltage partitions (Algorithm 1)",
		Header: fmt.Sprintf("%-34s %10s %10s %8s", "Data", "TolBER", "Partition", "VDD")}
	tol, coarse, err := fineGrainedResNet()
	if err != nil {
		return r, err
	}
	tm, _ := dnn.Pretrained("ResNet101")
	vendor, _ := dram.VendorByName("A")
	// Four partitions at increasing aggressiveness; BERs from the vendor
	// curve, capacity split evenly over a 4MiB module.
	parts := eden.VoltagePartitions(vendor, coarse, []float64{0.5, 1, 1.5, 2.5},
		dram.DefaultGeometry().Capacity()*8)
	chars := eden.DataTolerances(tm.Net, quant.FP32, tol)
	assign, err := eden.MapFineGrained(chars, parts)
	if err != nil {
		return r, err
	}
	for _, d := range chars {
		p := assign[d.ID]
		r.Rows = append(r.Rows, fmt.Sprintf("%-34s %9.3f%% %10d %7.2fV", d.ID, d.TolerableBER*100, p, parts[p].Op.VDD))
	}
	return r, nil
}

// CorrectionPolicyAblation reproduces the §3.2 zeroing-vs-saturation
// comparison at several BERs.
func CorrectionPolicyAblation() (Report, error) {
	r := Report{ID: "E16/Policy", Title: "Implausible-value correction: zero vs saturate vs off (LeNet, FP32)",
		Header: fmt.Sprintf("%9s %8s %9s %8s", "BER", "Zero", "Saturate", "Off")}
	tm, err := dnn.Pretrained("LeNet")
	if err != nil {
		return r, err
	}
	em := uniformModel(1)
	score := func(policy memctrl.Policy, ber float64) float64 {
		var sum float64
		for pass := 0; pass < 3; pass++ {
			corr := eden.NewSoftwareDRAM(em, quant.FP32)
			corr.BER = ber
			corr.Logic.Policy = policy
			corr.Calibrate(tm, 16, 0)
			for i := 0; i < pass; i++ {
				corr.NextPass()
			}
			sum += tm.Net.Accuracy(tm.ValSet, corr.EvalOptions(60))
		}
		return sum / 3
	}
	for _, ber := range []float64{1e-4, 1e-3, 5e-3} {
		r.Rows = append(r.Rows, fmt.Sprintf("%9.0e %7.1f%% %8.1f%% %7.1f%%",
			ber, score(memctrl.Zero, ber)*100, score(memctrl.Saturate, ber)*100, score(memctrl.Off, ber)*100))
	}
	return r, nil
}

// PruningAblation reproduces the §3.3 finding that magnitude pruning does
// not significantly change error tolerance.
func PruningAblation() (Report, error) {
	r := Report{ID: "E17/Pruning", Title: "Error tolerance vs sparsity (LeNet, FP32, BER 1e-3)",
		Header: fmt.Sprintf("%9s %10s %9s", "Sparsity", "CleanAcc", "Acc@BER")}
	tm, err := dnn.Pretrained("LeNet")
	if err != nil {
		return r, err
	}
	em := uniformModel(1)
	for _, frac := range []float64{0, 0.10, 0.50, 0.75, 0.90} {
		net := tm.CloneNet()
		dnn.PruneMagnitude(net, frac)
		clean := net.Accuracy(tm.ValSet, dnn.EvalOptions{MaxSamples: 60})
		var sum float64
		for pass := 0; pass < 3; pass++ {
			sum += eden.EvalWithModel(tm, net, em, 1e-3, quant.FP32, 60)
		}
		r.Rows = append(r.Rows, fmt.Sprintf("%8.0f%% %9.1f%% %8.1f%%", net.Sparsity()*100, clean*100, sum/3*100))
	}
	return r, nil
}
