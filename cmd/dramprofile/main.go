// Command dramprofile characterizes a simulated approximate DRAM module in
// the style of the paper's SoftMC runs: it sweeps supply voltage and tRCD,
// measures bit error rates per data pattern, fits the four error models and
// reports which one the MLE selection picks.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/dram"
	"repro/internal/errormodel"
	"repro/internal/parallel"
	"repro/internal/softmc"
)

func main() {
	vendorName := flag.String("vendor", "A", "vendor profile: A, B or C")
	seed := flag.Uint64("seed", 1, "device seed (chip instance)")
	reads := flag.Int("reads", 4, "reads per pattern during characterization")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.Parse()
	if *reads > softmc.MaxReads {
		log.Fatalf("-reads %d: at most %d reads per pattern fit a profile's counters", *reads, softmc.MaxReads)
	}
	parallel.SetWorkers(*workers)

	vendor, err := dram.VendorByName(*vendorName)
	if err != nil {
		log.Fatal(err)
	}
	device := dram.NewDevice(dram.DefaultGeometry(), vendor, *seed)

	fmt.Println("BER sweep (pattern 0xAA):")
	for _, vdd := range []float64{1.30, 1.20, 1.10, 1.05, 1.00} {
		op := dram.Nominal()
		op.VDD = vdd
		ber := softmc.MeasureBER(device, op, 0xAA, 2)
		fmt.Printf("  VDD %.2fV: BER %.3e\n", vdd, ber)
	}
	for _, trcd := range []float64{10.0, 9.0, 7.5, 6.0, 5.0} {
		op := dram.Nominal()
		op.Timing.TRCD = trcd
		ber := softmc.MeasureBER(device, op, 0xAA, 2)
		fmt.Printf("  tRCD %.1fns: BER %.3e\n", trcd, ber)
	}

	op := dram.Nominal()
	op.VDD = 1.05
	fmt.Printf("\ncharacterizing at VDD=%.2fV (%d reads per pattern)...\n", op.VDD, *reads)
	prof := softmc.Characterize(device, op, softmc.CharacterizeConfig{Reads: *reads, MaxRows: 64})
	fmt.Printf("measured aggregate BER: %.3e\n", prof.MeasuredBER())

	for _, m := range errormodel.FitAll(prof, *seed) {
		fmt.Printf("  %v: fitted BER %.3e, log-likelihood %.0f\n",
			m.Kind, m.AggregateBER(), m.LogLikelihood(prof))
	}
	sel := errormodel.Select(prof, *seed)
	fmt.Printf("selected: %v\n", sel.Kind)
}
