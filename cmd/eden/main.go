// Command eden runs the end-to-end EDEN pipeline for one zoo model:
// profile a module, fit an error model, curricularly retrain the DNN,
// characterize its tolerable bit error rate (optionally per data type),
// map it onto DRAM operating points (a Table 3 row), and optionally write
// the resulting deployment artifact — the file cmd/serve consumes with
// -deployment. -backend sets the process-wide compute backend
// (compute.SetDefault) once at start-up; backends are bit-identical, so it
// moves the run's wall-clock, never the artifact.
//
//	go run ./cmd/eden -model LeNet -o lenet.eden
//	go run ./cmd/serve -deployment lenet.eden
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/compute"
	"repro/internal/eden"
	"repro/internal/parallel"
	"repro/internal/profiling"
	"repro/internal/quant"
)

func main() {
	model := flag.String("model", "LeNet", "zoo model name (see internal/dnn.Zoo)")
	vendor := flag.String("vendor", "A", "DRAM vendor profile: A, B or C")
	prec := flag.String("prec", "fp32", "precision: fp32, int16, int8, int4")
	drop := flag.Float64("maxdrop", 0.01, "maximum tolerated accuracy drop")
	epochs := flag.Int("epochs", 8, "curricular retraining epochs per round")
	rounds := flag.Int("rounds", 1, "boost/characterize rounds")
	fine := flag.Bool("fine", false, "fine-grained characterization + Algorithm-1 partition mapping")
	out := flag.String("o", "", "write the deployment artifact to this path")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	backendName := flag.String("backend", compute.Default().Name(),
		fmt.Sprintf("process-wide compute backend (compute.SetDefault): %s (bit-identical; wall-clock only)", strings.Join(compute.Names(), ", ")))
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the pipeline run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	flag.Parse()
	parallel.SetWorkers(*workers)

	backend, err := compute.ByName(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	compute.SetDefault(backend)

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	fatal := profiling.Fatal(stopProf)

	p, err := quant.ParsePrecision(*prec)
	if err != nil {
		fatal(err)
	}
	cfg := eden.DefaultDeploy(*vendor)
	cfg.Prec = p
	cfg.Char.MaxDrop = *drop
	cfg.RetrainEpochs = *epochs
	cfg.Rounds = *rounds
	cfg.FineGrained = *fine

	dep, err := eden.Deploy(*model, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("error model: %v (aggregate BER %.2e)\n", dep.ErrorModel.Kind, dep.ErrorModel.AggregateBER())
	fmt.Printf("baseline tolerable BER: %.3e\n", dep.BaselineTolBER)
	fmt.Printf("boosted  tolerable BER: %.3e\n", dep.TolerableBER)
	if *fine && !dep.FineGrained {
		fmt.Printf("fine-grained mapping fell back to the coarse operating point: %s\n", dep.FineGrainedErr)
	}
	fmt.Println(dep)
	if *out != "" {
		if err := dep.SaveFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote deployment artifact %s (%d weight bytes at %s)\n", *out, dep.WeightBytes, dep.Prec)
	}
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
}
