// The quickstart example walks the full EDEN flow on the smallest model:
// train LeNet on the synthetic dataset, profile an approximate DRAM module,
// fit an error model, boost the DNN with curricular retraining, find its
// maximum tolerable bit error rate, and map it to reduced DRAM parameters.
package main

import (
	"fmt"
	"log"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/eden"
)

func main() {
	// 1. A trained baseline DNN (trained on first use, then cached).
	tm, err := dnn.Pretrained("LeNet")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline LeNet accuracy on reliable DRAM: %.1f%%\n", tm.BaselineAcc*100)

	// 2. Profile an approximate DRAM module and fit an error model.
	vendor, _ := dram.VendorByName("A")
	device := dram.NewDevice(dram.DefaultGeometry(), vendor, 42)
	em := eden.ProfileAndFit(device, 1.05, 64, 42)
	fmt.Printf("fitted %v, aggregate BER %.2e\n", em.Kind, em.AggregateBER())

	// 3. Boost the DNN with curricular retraining against that model.
	rc := eden.DefaultRetrain(em, 0.01)
	boosted := eden.Retrain(tm, rc)

	// 4. Characterize: find the maximum tolerable BER within 1% accuracy.
	cfg := eden.DefaultCharacterize()
	cfg.MaxSamples = 60
	baseTol := eden.CoarseCharacterize(tm, tm.Net, em, cfg)
	boostTol := eden.CoarseCharacterize(tm, boosted, em, cfg)
	fmt.Printf("tolerable BER: baseline %.2e, boosted %.2e\n", baseTol, boostTol)

	// 5. Map to DRAM parameters: the most aggressive operating point whose
	// error rate the boosted DNN tolerates.
	op := eden.CoarseMap(vendor, boostTol)
	fmt.Printf("mapped operating point: VDD %.2fV (Δ%+.2f), tRCD %.1fns (Δ%+.1f)\n",
		op.VDD, op.VDD-dram.NominalVDD,
		op.Timing.TRCD, op.Timing.TRCD-dram.NominalTiming().TRCD)

	// 6. Verify on the device at the mapped operating point.
	device.SetOperatingPoint(op)
	acc, err := eden.DeviceMetric(tm, boosted, device, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("boosted accuracy on approximate DRAM at mapped point: %.1f%%\n", acc*100)
}
