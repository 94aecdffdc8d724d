package experiments

import (
	"errors"
	"fmt"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/softmc"
)

// cpuModels are the six networks of Figs. 13 and 14.
var cpuModels = []string{"YOLO-Tiny", "YOLO", "ResNet101", "VGG-16", "SqueezeNet1.1", "DenseNet201"}

// cpuCell is one (model, precision) cell of Figs. 13 and 14: its batch-16
// workload and its Table 3 operating point.
type cpuCell struct {
	model string
	prec  quant.Precision
	w     sim.Workload
	op    dram.OperatingPoint
}

// cpuCells builds the Figs. 13–14 grid, every model at FP32 and int8. Each
// cell builds its own network and workload, so the grid fans out one cell
// per worker; operating points come through the mutex-guarded Table 3
// cache, which concurrent cells share safely.
func cpuCells() ([]cpuCell, error) {
	var cells []cpuCell
	for _, m := range cpuModels {
		for _, p := range []quant.Precision{quant.FP32, quant.Int8} {
			cells = append(cells, cpuCell{model: m, prec: p})
		}
	}
	errs := make([]error, len(cells))
	parallel.ForEach(len(cells), func(i int) {
		c := &cells[i]
		c.w, c.op, errs[i] = workloadAt(c.model, c.prec, 16)
	})
	return cells, errors.Join(errs...)
}

// workloadAt returns model's workload at prec and batch, and the reduced
// operating point of its Table 3 pipeline run.
func workloadAt(model string, prec quant.Precision, batch int) (sim.Workload, dram.OperatingPoint, error) {
	spec, _ := dnn.LookupSpec(model)
	net, err := dnn.BuildModel(model)
	if err != nil {
		return sim.Workload{}, dram.OperatingPoint{}, err
	}
	d, err := Table3For(model)
	if err != nil {
		return sim.Workload{}, dram.OperatingPoint{}, err
	}
	return sim.FromModel(spec, net, prec, batch), d.Op, nil
}

// Figure13CPUEnergy reproduces Fig. 13: per-model DRAM energy savings on
// the Table 4 CPU at the model's Table 3 operating point, FP32 and int8.
func Figure13CPUEnergy() (Report, error) {
	r := Report{ID: "E11/Fig13", Title: "CPU DRAM energy savings (Table 4 system, vendor A mapping)",
		Header: fmt.Sprintf("%-14s %-6s %10s", "Model", "Prec", "Savings")}
	cells, err := cpuCells()
	if err != nil {
		return r, err
	}
	cpu := sim.Table4CPU()
	var geoSum float64
	for _, c := range cells {
		s := sim.EnergySavings(cpu, c.w, sim.DDR4(), c.op.VDD, c.op.Timing)
		r.Rows = append(r.Rows, fmt.Sprintf("%-14s %-6s %9.1f%%", c.model, c.prec, s*100))
		geoSum += s
	}
	r.Rows = append(r.Rows, fmt.Sprintf("%-14s %-6s %9.1f%%", "Mean", "", geoSum/float64(len(cells))*100))
	return r, nil
}

// Figure14CPUSpeedup reproduces Fig. 14: per-model CPU speedup at the
// Table 3 tRCD reduction, next to the ideal tRCD=0 system.
func Figure14CPUSpeedup() (Report, error) {
	r := Report{ID: "E12/Fig14", Title: "CPU speedup: EDEN vs ideal tRCD=0 (Table 4 system)",
		Header: fmt.Sprintf("%-14s %-6s %8s %8s", "Model", "Prec", "EDEN", "Ideal")}
	cells, err := cpuCells()
	if err != nil {
		return r, err
	}
	cpu := sim.Table4CPU()
	ideal := dram.NominalTiming()
	ideal.TRCD = 0
	var sumE, sumI float64
	for _, c := range cells {
		eden, best := sim.Speedup(cpu, c.w, c.op.Timing), sim.Speedup(cpu, c.w, ideal)
		r.Rows = append(r.Rows, fmt.Sprintf("%-14s %-6s %7.3fx %7.3fx", c.model, c.prec, eden, best))
		sumE += eden
		sumI += best
	}
	n := len(cells)
	r.Rows = append(r.Rows, fmt.Sprintf("%-14s %-6s %7.3fx %7.3fx", "Mean", "", sumE/float64(n), sumI/float64(n)))
	return r, nil
}

// Section72GPU reproduces the §7.2 GPU results: energy savings and speedup
// for the YOLO family on the Table 5 GPU.
func Section72GPU() (Report, error) {
	r := Report{ID: "E13/GPU", Title: "GPU (Table 5): DRAM energy savings and speedup",
		Header: fmt.Sprintf("%-14s %-6s %9s %9s", "Model", "Prec", "Energy", "Speedup")}
	gpu := sim.Table5GPU()
	for _, model := range []string{"YOLO", "YOLO-Tiny"} {
		for _, prec := range []quant.Precision{quant.FP32, quant.Int8} {
			w, op, err := workloadAt(model, prec, 16)
			if err != nil {
				return r, err
			}
			e := sim.EnergySavings(gpu, w, sim.DDR4(), op.VDD, op.Timing)
			s := sim.Speedup(gpu, w, op.Timing)
			r.Rows = append(r.Rows, fmt.Sprintf("%-14s %-6s %8.1f%% %8.3fx", model, prec, e*100, s))
		}
	}
	return r, nil
}

// Section72Accelerators reproduces the §7.2 accelerator results: Eyeriss
// and TPU DRAM energy savings on DDR4 and LPDDR3, plus the no-speedup
// finding.
func Section72Accelerators() (Report, error) {
	r := Report{ID: "E14/Accel", Title: "Eyeriss and TPU (Table 6): DRAM energy savings, speedup",
		Header: fmt.Sprintf("%-8s %-12s %-12s %9s %9s", "Accel", "Model", "DRAM", "Energy", "Speedup")}
	for _, a := range []sim.Accel{sim.Eyeriss(), sim.TPU()} {
		for _, model := range []string{"AlexNet", "YOLO-Tiny"} {
			w, op, err := workloadAt(model, quant.Int8, 1)
			if err != nil {
				return r, err
			}
			for _, p := range []sim.Power{sim.DDR4(), sim.LPDDR3()} {
				e := sim.EnergySavings(a, w, p, op.VDD, op.Timing)
				s := sim.Speedup(a, w, op.Timing)
				r.Rows = append(r.Rows, fmt.Sprintf("%-8s %-12s %-12s %8.1f%% %8.3fx",
					a.Name, model, p.Name, e*100, s))
			}
		}
	}
	return r, nil
}

// ProfilingCost reproduces the §6.2 claim that a full characterization pass
// of a 16-bank 4GB DDR4 module takes under 4 minutes.
func ProfilingCost() Report {
	r := Report{ID: "E15/Profiling", Title: "Estimated full-module profiling wall time",
		Header: fmt.Sprintf("%-28s %10s", "Module", "Seconds")}
	big := dram.Geometry{Banks: 16, SubarraysPerBank: 64, RowsPerSubarray: 512, RowBytes: 8192}
	secs := softmc.ProfilingCost(big, softmc.CharacterizeConfig{Reads: 4}, dram.NominalTiming())
	r.Rows = append(r.Rows, fmt.Sprintf("%-28s %9.0fs", "16-bank 4GB DDR4", secs))
	small := dram.DefaultGeometry()
	r.Rows = append(r.Rows, fmt.Sprintf("%-28s %9.1fs", "experiment module (4MiB)",
		softmc.ProfilingCost(small, softmc.CharacterizeConfig{Reads: 4}, dram.NominalTiming())))
	return r
}
