package dram

import (
	"testing"
	"testing/quick"
)

func TestVDDForBERInverse(t *testing.T) {
	v := Vendors()[0]
	for _, target := range []float64{1e-6, 1e-4, 1e-2, 0.05} {
		vdd := v.VDDForBER(target, 0)
		op := Nominal()
		op.VDD = vdd
		if ber := v.ExpectedBER(op); ber > target*1.01 {
			t.Fatalf("VDDForBER(%v) = %v gives BER %v above target", target, vdd, ber)
		}
	}
}

func TestVDDForBERQuantization(t *testing.T) {
	v := Vendors()[0]
	vdd := v.VDDForBER(1e-3, 0.05)
	// Must be a multiple of the step and still meet the BER constraint.
	steps := vdd / 0.05
	if diff := steps - float64(int(steps+0.5)); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("VDD %v not on a 0.05V grid", vdd)
	}
	op := Nominal()
	op.VDD = vdd
	if ber := v.ExpectedBER(op); ber > 1e-3*1.01 {
		t.Fatalf("quantized VDD violates BER target: %v", ber)
	}
}

func TestTRCDForBERInverse(t *testing.T) {
	v := Vendors()[0]
	for _, target := range []float64{1e-6, 1e-3, 0.05} {
		trcd := v.TRCDForBER(target, 0.5)
		op := Nominal()
		op.Timing.TRCD = trcd
		if ber := v.ExpectedBER(op); ber > target*1.01 {
			t.Fatalf("TRCDForBER(%v) = %v gives BER %v", target, trcd, ber)
		}
	}
}

func TestOpForBERRespectsBudget(t *testing.T) {
	// Property: for any tolerable BER, the mapped operating point's
	// combined expected BER stays within the budget (the accuracy
	// guarantee EDEN's coarse mapping relies on, §3.4).
	f := func(seed uint8) bool {
		target := 1e-5 * float64(int(seed)+1) * 50 // up to ~0.013
		for _, v := range Vendors() {
			op := v.OpForBER(target, 0.05, 0.5)
			if v.ExpectedBER(op) > target*1.05 {
				return false
			}
			if op.VDD > NominalVDD || op.Timing.TRCD > NominalTiming().TRCD {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroTargetMapsToNominal(t *testing.T) {
	v := Vendors()[0]
	op := v.OpForBER(0, 0.05, 0.5)
	if op.VDD != NominalVDD || op.Timing.TRCD != NominalTiming().TRCD {
		t.Fatalf("zero tolerance mapped to %+v", op)
	}
}

// TestForBERTradesMarginForTarget states Table 3's inversion for every
// vendor: a looser BER target never raises the voltage or tRCD, each result
// below nominal is the lowest step that meets its target (one step lower
// misses it), and at 1e-2 both sit below nominal.
func TestForBERTradesMarginForTarget(t *testing.T) {
	const vddStep, trcdStep = 0.01, 0.5
	nominal := NominalTiming().TRCD
	for _, v := range Vendors() {
		vdd, trcd := NominalVDD, nominal
		for _, target := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2} {
			nextVDD, nextTRCD := v.VDDForBER(target, vddStep), v.TRCDForBER(target, trcdStep)
			if nextVDD > vdd || nextTRCD > trcd {
				t.Errorf("vendor %s, target %g: VDD %v, tRCD %v rose from %v V, %v ns at the tighter target", v.Name, target, nextVDD, nextTRCD, vdd, trcd)
			}
			vdd, trcd = nextVDD, nextTRCD
			lower := Nominal()
			lower.VDD = vdd - vddStep
			if vBER, _ := v.baseBER(lower); vdd < NominalVDD && vBER <= target {
				t.Errorf("vendor %s, target %g: VDD %v is not the lowest step; %v V meets it too", v.Name, target, vdd, lower.VDD)
			}
			lower = Nominal()
			lower.Timing.TRCD = trcd - trcdStep
			if _, tBER := v.baseBER(lower); trcd < nominal && tBER <= target {
				t.Errorf("vendor %s, target %g: tRCD %v is not the lowest step; %v ns meets it too", v.Name, target, trcd, lower.Timing.TRCD)
			}
		}
		if vdd >= NominalVDD || trcd >= nominal {
			t.Errorf("vendor %s: at 1e-2, VDD %v V and tRCD %v ns must both sit below nominal", v.Name, vdd, trcd)
		}
	}
}
