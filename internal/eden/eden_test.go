package eden

import (
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/errormodel"
	"repro/internal/memctrl"
	"repro/internal/quant"
)

func uniformModel(ber float64) *errormodel.Model {
	return errormodel.Uniform(ber)
}

func lenet(t *testing.T) *dnn.TrainedModel {
	t.Helper()
	tm, err := dnn.Pretrained("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestEnumerateData(t *testing.T) {
	tm := lenet(t)
	data := EnumerateData(tm.Net, quant.FP32)
	weights, ifms := 0, 0
	for _, d := range data {
		if d.Bits <= 0 {
			t.Fatalf("%s has %d bits", d.ID, d.Bits)
		}
		switch {
		case strings.HasPrefix(d.ID, "w:"):
			weights++
		case strings.HasPrefix(d.ID, "ifm:"):
			ifms++
		default:
			t.Fatalf("unknown ID %q", d.ID)
		}
	}
	if weights != len(tm.Net.Params()) {
		t.Fatalf("%d weight entries, want %d", weights, len(tm.Net.Params()))
	}
	if ifms != len(tm.Net.Layers) {
		t.Fatalf("%d IFM entries, want %d", ifms, len(tm.Net.Layers))
	}
}

func TestSoftwareDRAMDegradesWithBER(t *testing.T) {
	tm := lenet(t)
	clean := tm.Net.Accuracy(tm.ValSet, dnn.EvalOptions{})
	var accs []float64
	for _, ber := range []float64{1e-4, 1e-2, 2e-1} {
		corr := NewSoftwareDRAM(uniformModel(ber), quant.Int8)
		corr.Calibrate(tm, 16, 0)
		accs = append(accs, tm.Net.Accuracy(tm.ValSet, corr.EvalOptions(0)))
	}
	if accs[0] < clean-0.1 {
		t.Fatalf("BER 1e-4 already dropped accuracy: %v vs clean %v", accs[0], clean)
	}
	if accs[2] > clean-0.2 {
		t.Fatalf("BER 0.2 did not hurt: %v vs clean %v", accs[2], clean)
	}
}

func TestCorruptWeightsRestores(t *testing.T) {
	tm := lenet(t)
	corr := NewSoftwareDRAM(uniformModel(0.1), quant.Int8)
	p0 := tm.Net.Params()[0]
	orig := append([]float32(nil), p0.W.Data...)
	restore := corr.CorruptWeights(tm.Net)
	changed := false
	for i := range orig {
		if p0.W.Data[i] != orig[i] {
			changed = true
			break
		}
	}
	restore()
	for i := range orig {
		if p0.W.Data[i] != orig[i] {
			t.Fatal("restore did not recover clean weights")
		}
	}
	if !changed {
		t.Fatal("corruption at BER 0.1 changed nothing")
	}
}

func TestBoundingPreventsFP32Collapse(t *testing.T) {
	// The §3.2 claim: with correction, FP32 tolerates ~1e-3; without, even
	// small BERs produce accuracy collapse through exponent bit flips.
	tm := lenet(t)
	clean := tm.Net.Accuracy(tm.ValSet, dnn.EvalOptions{})

	withZero := NewSoftwareDRAM(uniformModel(1e-3), quant.FP32)
	withZero.Calibrate(tm, 16, 0)
	accZero := tm.Net.Accuracy(tm.ValSet, withZero.EvalOptions(0))

	noCorrect := NewSoftwareDRAM(uniformModel(1e-3), quant.FP32)
	noCorrect.Logic.Policy = memctrl.Off
	accOff := tm.Net.Accuracy(tm.ValSet, noCorrect.EvalOptions(0))

	if accZero < clean-0.15 {
		t.Fatalf("zeroing at 1e-3: accuracy %v vs clean %v", accZero, clean)
	}
	if accOff >= accZero {
		t.Fatalf("correction off (%v) not worse than zeroing (%v)", accOff, accZero)
	}
}

func TestZeroingBeatsSaturation(t *testing.T) {
	// §3.2 ablation: zeroing out-of-bounds values outperforms saturating
	// them. Averaged over passes to de-noise.
	tm := lenet(t)
	score := func(policy memctrl.Policy) float64 {
		var sum float64
		for pass := 0; pass < 3; pass++ {
			corr := NewSoftwareDRAM(uniformModel(5e-3), quant.FP32)
			corr.Logic.Policy = policy
			corr.Calibrate(tm, 16, 0)
			for i := 0; i < pass; i++ {
				corr.NextPass()
			}
			sum += tm.Net.Accuracy(tm.ValSet, corr.EvalOptions(0))
		}
		return sum / 3
	}
	zero := score(memctrl.Zero)
	sat := score(memctrl.Saturate)
	if zero < sat-0.02 {
		t.Fatalf("zeroing %v clearly worse than saturation %v", zero, sat)
	}
	t.Logf("zeroing %.3f vs saturation %.3f", zero, sat)
}

func TestCoarseCharacterizeMonotone(t *testing.T) {
	tm := lenet(t)
	cfg := DefaultCharacterize()
	cfg.MaxSamples = 40
	cfg.SearchSteps = 6
	strict := cfg
	strict.MaxDrop = 0.01
	loose := cfg
	loose.MaxDrop = 0.30
	em := uniformModel(0.01)
	tolStrict := CoarseCharacterize(tm, tm.Net, em, strict)
	tolLoose := CoarseCharacterize(tm, tm.Net, em, loose)
	if tolStrict <= 0 {
		t.Fatal("strict characterization found no tolerable BER")
	}
	if tolLoose < tolStrict {
		t.Fatalf("looser target tolerates less: %v < %v", tolLoose, tolStrict)
	}
}

func TestRetrainBoostsTolerance(t *testing.T) {
	// The §6.4 claim, in its robust Fig. 10 form: after curricular
	// retraining at a target BER, accuracy at that BER is clearly higher
	// than the baseline network's (the error-tolerance curve shifts right).
	tm := lenet(t)
	em := uniformModel(0.01)
	const target = 0.01
	accAt := func(net *dnn.Network, ber float64) float64 {
		var sum float64
		for r := 0; r < 3; r++ {
			sum += EvalWithModel(tm, net, em, ber, quant.FP32, 80)
		}
		return sum / 3
	}
	base := accAt(tm.Net, target)
	rc := DefaultRetrain(em, target)
	boosted := Retrain(tm, rc)
	cur := accAt(boosted, target)
	t.Logf("accuracy at BER %.3f: baseline %.3f, boosted %.3f", target, base, cur)
	if cur < base+0.05 {
		t.Fatalf("boosting did not shift the tolerance curve: %.3f -> %.3f", base, cur)
	}
	// And the boosted network keeps its clean accuracy.
	clean := boosted.Accuracy(tm.ValSet, dnn.EvalOptions{MaxSamples: 80})
	baseClean := tm.Net.Accuracy(tm.ValSet, dnn.EvalOptions{MaxSamples: 80})
	if clean < baseClean-0.05 {
		t.Fatalf("boosted clean accuracy fell: %.3f vs %.3f", clean, baseClean)
	}
}

func TestCurricularRetrainingAblation(t *testing.T) {
	// Fig. 10-right ablation. At this model scale the paper's outright
	// accuracy collapse of non-curricular retraining does not manifest
	// (LeNet-mini is shallow and gradient-clipped), so the reproducible
	// claims are: retraining at the target BER beats the baseline, and the
	// curriculum is never harmful.
	tm := lenet(t)
	em := uniformModel(0.01)
	const target = 0.01
	accAt := func(net *dnn.Network) float64 {
		var sum float64
		for r := 0; r < 3; r++ {
			sum += EvalWithModel(tm, net, em, target, quant.FP32, 80)
		}
		return sum / 3
	}
	train := func(curricular bool) float64 {
		rc := DefaultRetrain(em, target)
		rc.Curricular = curricular
		return accAt(Retrain(tm, rc))
	}
	base := accAt(tm.Net)
	cur := train(true)
	non := train(false)
	t.Logf("baseline %.3f, curricular %.3f, non-curricular %.3f at BER %.2f", base, cur, non, target)
	if cur < base+0.05 {
		t.Fatalf("curricular retraining (%.3f) did not beat baseline (%.3f)", cur, base)
	}
	if cur < non-0.10 {
		t.Fatalf("curricular (%.3f) clearly worse than non-curricular (%.3f)", cur, non)
	}
}

func TestFineCharacterizeAboveCoarse(t *testing.T) {
	tm := lenet(t)
	em := uniformModel(0.01)
	cfg := DefaultCharacterize()
	cfg.MaxSamples = 30
	cfg.SearchSteps = 5
	cfg.Repeats = 1
	coarse := CoarseCharacterize(tm, tm.Net, em, cfg)
	if coarse <= 0 {
		t.Skip("no coarse tolerance to bootstrap from")
	}
	tol := FineCharacterize(tm, tm.Net, em, coarse, cfg, 3)
	if len(tol) != len(EnumerateData(tm.Net, cfg.Prec)) {
		t.Fatalf("fine map covers %d data types", len(tol))
	}
	raised := 0
	for id, b := range tol {
		if b < coarse*0.999 {
			t.Fatalf("%s tolerance %v below coarse %v", id, b, coarse)
		}
		if b > coarse*1.001 {
			raised++
		}
	}
	if raised == 0 {
		t.Fatal("fine-grained sweep raised no data type above the coarse BER")
	}
	t.Logf("raised %d/%d data types above coarse", raised, len(tol))
}

func TestMapFineGrained(t *testing.T) {
	parts := []PartitionInfo{
		{ID: 0, BER: 0, Bits: 1000, Op: dram.Nominal()},
		{ID: 1, BER: 0.01, Bits: 1000, Op: opAt(1.20, 10)},
		{ID: 2, BER: 0.05, Bits: 1000, Op: opAt(1.05, 7)},
	}
	data := []DataChar{
		{DataDesc{ID: "w:a", Bits: 500}, 0.06},
		{DataDesc{ID: "w:b", Bits: 500}, 0.02},
		{DataDesc{ID: "ifm:c", Bits: 500}, 0.001},
	}
	assign, err := MapFineGrained(data, parts)
	if err != nil {
		t.Fatal(err)
	}
	if assign["w:a"] != 2 {
		t.Fatalf("most tolerant data landed in partition %d, want 2", assign["w:a"])
	}
	if assign["w:b"] != 1 {
		t.Fatalf("mid data landed in %d, want 1", assign["w:b"])
	}
	if assign["ifm:c"] != 0 {
		t.Fatalf("fragile data landed in %d, want 0", assign["ifm:c"])
	}
}

func opAt(vdd, trcd float64) dram.OperatingPoint {
	op := dram.Nominal()
	op.VDD = vdd
	op.Timing.TRCD = trcd
	return op
}

func TestMapFineGrainedCapacity(t *testing.T) {
	parts := []PartitionInfo{
		{ID: 0, BER: 0, Bits: 600, Op: dram.Nominal()},
		{ID: 1, BER: 0.05, Bits: 600, Op: opAt(1.05, 7)},
	}
	data := []DataChar{
		{DataDesc{ID: "a", Bits: 500}, 0.06},
		{DataDesc{ID: "b", Bits: 500}, 0.06}, // does not fit partition 1 with a
	}
	assign, err := MapFineGrained(data, parts)
	if err != nil {
		t.Fatal(err)
	}
	if assign["a"] == assign["b"] {
		t.Fatal("capacity constraint ignored")
	}
}

func TestMapFineGrainedImpossible(t *testing.T) {
	parts := []PartitionInfo{{ID: 0, BER: 0.05, Bits: 1000, Op: opAt(1.05, 7)}}
	data := []DataChar{{DataDesc{ID: "fragile", Bits: 10}, 0.0}}
	if _, err := MapFineGrained(data, parts); err == nil {
		t.Fatal("fragile data mapped onto an error-prone partition")
	}
}

// TestMapFineGrainedTieBreak: two partitions at the same operating point
// tie on aggressiveness even when their characterized BERs differ (BER is
// measured per module, not derived from the operating point). The greedy
// fill used to always pick the lowest index among tied partitions, which
// could burn the scarce low-BER partition on tolerant data and then fail
// to place a large fragile data type that only that partition could hold.
// Preferring the tied partition with more free bits steers tolerant data
// away and keeps the placement feasible.
func TestMapFineGrainedTieBreak(t *testing.T) {
	op := opAt(1.10, 8)
	parts := []PartitionInfo{
		{ID: 0, BER: 0.001, Bits: 1000, Op: op}, // scarce: only home for fragile data
		{ID: 1, BER: 0.04, Bits: 1200, Op: op},
	}
	data := []DataChar{
		{DataDesc{ID: "w:tolerant", Bits: 500}, 0.05},   // placed first (highest tolerance)
		{DataDesc{ID: "ifm:fragile", Bits: 900}, 0.002}, // only fits partition 0
	}
	assign, err := MapFineGrained(data, parts)
	if err != nil {
		t.Fatalf("tie-break regression: %v", err)
	}
	if assign["w:tolerant"] != 1 {
		t.Fatalf("tolerant data landed in %d, want the freer tied partition 1", assign["w:tolerant"])
	}
	if assign["ifm:fragile"] != 0 {
		t.Fatalf("fragile data landed in %d, want 0", assign["ifm:fragile"])
	}
}

// TestMapFineGrainedTieBreakDeterminism: with fully symmetric tied
// partitions the assignment must be a pure function of the input, not of
// map iteration order.
func TestMapFineGrainedTieBreakDeterminism(t *testing.T) {
	op := opAt(1.10, 8)
	parts := []PartitionInfo{
		{ID: 3, BER: 0.01, Bits: 800, Op: op},
		{ID: 7, BER: 0.01, Bits: 800, Op: op},
	}
	data := []DataChar{
		{DataDesc{ID: "w:a", Bits: 400}, 0.05},
		{DataDesc{ID: "w:b", Bits: 400}, 0.05},
		{DataDesc{ID: "w:c", Bits: 400}, 0.05},
	}
	first, err := MapFineGrained(data, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := MapFineGrained(data, parts)
		if err != nil {
			t.Fatal(err)
		}
		for id, pid := range first {
			if again[id] != pid {
				t.Fatalf("run %d: %s moved from %d to %d", i, id, pid, again[id])
			}
		}
	}
	// Symmetric ties break toward the lower partition index: equal
	// tolerances sort by ID, so w:a takes partition 3, w:b the (now freer)
	// 7, and w:c whichever has more room — 3 and 7 are equally full, so 3.
	if first["w:a"] != 3 || first["w:b"] != 7 || first["w:c"] != 3 {
		t.Fatalf("unexpected deterministic assignment %v", first)
	}
}

// TestMapFineGrainedCapacityExhausted pins the error path: when every
// admissible partition is full, MapFineGrained must report which data
// failed instead of assigning out of capacity.
func TestMapFineGrainedCapacityExhausted(t *testing.T) {
	parts := []PartitionInfo{
		{ID: 0, BER: 0, Bits: 300, Op: dram.Nominal()},
		{ID: 1, BER: 0.05, Bits: 1000, Op: opAt(1.05, 7)},
	}
	data := []DataChar{
		{DataDesc{ID: "w:tough", Bits: 900}, 0.06},
		{DataDesc{ID: "ifm:fragile", Bits: 400}, 0.0}, // only fits partition 0, which is too small
	}
	_, err := MapFineGrained(data, parts)
	if err == nil {
		t.Fatal("capacity exhaustion not reported")
	}
	if !strings.Contains(err.Error(), "ifm:fragile") {
		t.Fatalf("error %q does not name the failing data", err)
	}
}

func TestBERByAssignment(t *testing.T) {
	parts := []PartitionInfo{{ID: 0, BER: 0}, {ID: 7, BER: 0.03}}
	assign := map[string]int{"a": 0, "b": 7}
	bers := BERByAssignment(assign, parts)
	if bers["a"] != 0 || bers["b"] != 0.03 {
		t.Fatalf("BER map %v", bers)
	}
}

func TestCoarseMapOrdering(t *testing.T) {
	vendor := dram.Vendors()[0]
	opHigh := CoarseMap(vendor, 0.05)
	opLow := CoarseMap(vendor, 0.001)
	if opHigh.VDD > opLow.VDD {
		t.Fatalf("more tolerance gave higher voltage: %v vs %v", opHigh.VDD, opLow.VDD)
	}
	if opHigh.Timing.TRCD > opLow.Timing.TRCD {
		t.Fatalf("more tolerance gave slower tRCD: %v vs %v", opHigh.Timing.TRCD, opLow.Timing.TRCD)
	}
	if opLow.VDD > dram.NominalVDD || opLow.Timing.TRCD > dram.NominalTiming().TRCD {
		t.Fatal("mapping exceeded nominal parameters")
	}
}

func TestDeviceDRAMNominalIsClean(t *testing.T) {
	tm := lenet(t)
	device := dram.NewDevice(dram.DefaultGeometry(), dram.Vendors()[0], 3)
	acc, err := DeviceMetric(tm, tm.Net, device, 60)
	if err != nil {
		t.Fatal(err)
	}
	if clean := tm.Metric(dnn.EvalOptions{MaxSamples: 60}); acc != clean {
		t.Fatalf("nominal device accuracy %v, clean %v", acc, clean)
	}
}

func TestDeviceDRAMDegradesUnderStress(t *testing.T) {
	tm := lenet(t)
	device := dram.NewDevice(dram.DefaultGeometry(), dram.Vendors()[0], 4)
	op := dram.Nominal()
	op.VDD = 0.95
	device.SetOperatingPoint(op)
	acc, err := DeviceMetric(tm, tm.Net, device, 40)
	if err != nil {
		t.Fatal(err)
	}
	clean := tm.Metric(dnn.EvalOptions{MaxSamples: 40})
	if acc > clean-0.15 {
		t.Fatalf("heavy stress barely hurt: %v vs %v", acc, clean)
	}
}

// TestDeviceMetricCalibratesEvaluatedNet: bounds must describe the network
// being run (§3.2), not the trained model it was boosted from. Scaling
// LeNet's last FC layer by 4 leaves every argmax where it was, so on a
// nominal device the scaled network scores exactly its clean metric unless
// its grown weights are clipped to the unscaled network's bounds.
func TestDeviceMetricCalibratesEvaluatedNet(t *testing.T) {
	tm := lenet(t)
	net := tm.CloneNet()
	for _, p := range net.Layers[len(net.Layers)-1].(*dnn.FC).Params() {
		for i := range p.W.Data {
			p.W.Data[i] *= 4
		}
	}
	device := dram.NewDevice(dram.DefaultGeometry(), dram.Vendors()[0], 3)
	acc, err := DeviceMetric(tm, net, device, 60)
	if err != nil {
		t.Fatal(err)
	}
	if clean := tm.MetricOf(net, dnn.EvalOptions{MaxSamples: 60}); acc != clean {
		t.Fatalf("scaled network on a nominal device: %v, clean %v", acc, clean)
	}
}

// TestDeviceMetricRejectsSmallModule: a network that does not fit the module
// is an error naming both sizes, not a layout that reuses rows.
func TestDeviceMetricRejectsSmallModule(t *testing.T) {
	tm := lenet(t)
	geom := dram.Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 4, RowBytes: 2048}
	_, err := DeviceMetric(tm, tm.Net, dram.NewDevice(geom, dram.Vendors()[0], 5), 16)
	if err == nil {
		t.Fatal("a LeNet footprint fit an 8 KiB module")
	}
	for _, want := range []string{"footprint", "capacity 8192 B"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the %s", err, want)
		}
	}
}

// TestDeviceMetricDeterministic: a device's errors are a function of its
// seed, operating point and the order of its accesses, so two calls on fresh
// devices built alike agree at a point where errors do occur.
func TestDeviceMetricDeterministic(t *testing.T) {
	tm := lenet(t)
	op := dram.Nominal()
	op.VDD = 1.05
	var accs [2]float64
	for i := range accs {
		device := dram.NewDevice(dram.DefaultGeometry(), dram.Vendors()[0], 6)
		device.SetOperatingPoint(op)
		acc, err := DeviceMetric(tm, tm.Net, device, 60)
		if err != nil {
			t.Fatal(err)
		}
		accs[i] = acc
	}
	if accs[0] != accs[1] {
		t.Fatalf("fresh devices built alike gave %v and %v", accs[0], accs[1])
	}
	if clean := tm.Metric(dnn.EvalOptions{MaxSamples: 60}); accs[0] == clean {
		t.Fatalf("no error changed the metric at VDD %.2f V, so agreement proves nothing", op.VDD)
	}
}

func TestDeploymentString(t *testing.T) {
	d := &Deployment{ModelName: "LeNet", TolerableBER: 0.03, DeltaVDD: -0.3, DeltaTRCD: -4.5}
	s := d.String()
	if !strings.Contains(s, "LeNet") || !strings.Contains(s, "3.00%") {
		t.Fatalf("String() = %q", s)
	}
}
