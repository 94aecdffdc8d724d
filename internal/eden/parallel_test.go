package eden

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/errormodel"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func setWorkers(t *testing.T, n int) {
	t.Helper()
	prev := parallel.Workers()
	parallel.SetWorkers(n)
	t.Cleanup(func() { parallel.SetWorkers(prev) })
}

// TestCloneMatchesOriginalStream checks that a clone at the corruptor's
// current pass corrupts exactly like the original would.
func TestCloneMatchesOriginalStream(t *testing.T) {
	tm := lenet(t)
	mk := func() *SoftwareDRAM {
		c := NewSoftwareDRAM(uniformModel(1e-2), quant.Int8)
		c.Calibrate(tm, 16, 0)
		return c
	}
	orig := mk()
	clone := mk().Clone(0)
	x := tensor.New(1, tm.Net.InC, tm.Net.InH, tm.Net.InW)
	x.FillUniform(tensor.NewRNG(7), -1, 1)
	a := corruptCopy(orig, x, "ifm:probe")
	b := corruptCopy(clone, x, "ifm:probe")
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("clone diverged at element %d: %v != %v", i, b.Data[i], a.Data[i])
		}
	}
}

// TestClonePoolMatchesFreshClones: a recycled clone reset to a pass must
// corrupt byte-identically to a fresh Clone at that pass, so serving can
// reuse corruptors across requests without perturbing per-seed outputs.
func TestClonePoolMatchesFreshClones(t *testing.T) {
	tm := lenet(t)
	src := NewSoftwareDRAM(uniformModel(5e-2), quant.Int8)
	src.Calibrate(tm, 16, 0)
	pool := NewClonePool(src)

	x := tensor.New(1, tm.Net.InC, tm.Net.InH, tm.Net.InW)
	x.FillUniform(tensor.NewRNG(3), -1, 1)

	// Fresh-clone references for a few passes.
	want := map[uint64]*tensor.Tensor{}
	for _, pass := range []uint64{0, 7, 42} {
		want[pass] = corruptCopy(src.Clone(pass), x, "ifm:pool")
	}
	// Cycle the same physical clone through the pool over the passes in a
	// different order; each Get must reproduce the fresh-clone stream.
	for _, pass := range []uint64{42, 0, 7, 42, 7, 0} {
		c := pool.Get(pass).(*SoftwareDRAM)
		got := corruptCopy(c, x, "ifm:pool")
		for j := range got.Data {
			if got.Data[j] != want[pass].Data[j] {
				t.Fatalf("pass %d element %d: pooled %v != fresh %v", pass, j, got.Data[j], want[pass].Data[j])
			}
		}
		pool.Put(c)
	}
}

// TestScaledModelMemoFollowsBER: the per-BER memo of the scaled error model
// must be invisible. A corruptor swept across rates (and back) corrupts
// exactly like a fresh corruptor built at each rate, and a clone's new
// entries stay out of its parent's map.
func TestScaledModelMemoFollowsBER(t *testing.T) {
	x := tensor.New(1, 3, 8, 8)
	x.FillUniform(tensor.NewRNG(11), -1, 1)
	swept := NewSoftwareDRAM(uniformModel(1), quant.Int8)
	for _, ber := range []float64{1e-2, 5e-2, 1e-2} {
		swept.BER = ber
		fresh := NewSoftwareDRAM(uniformModel(1), quant.Int8)
		fresh.BER = ber
		got, want := corruptCopy(swept, x, "ifm:memo"), corruptCopy(fresh, x, "ifm:memo")
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("ber=%g element %d: swept %v != fresh %v", ber, i, got.Data[i], want.Data[i])
			}
		}
	}
	if len(swept.scaled) != 2 {
		t.Fatalf("memo holds %d models after two distinct rates", len(swept.scaled))
	}
	clone := swept.Clone(0)
	if clone.scaled[1e-2] != swept.scaled[1e-2] {
		t.Fatal("clone did not inherit the parent's scaled model")
	}
	clone.BER = 2e-1
	corruptCopy(clone, x, "ifm:memo")
	if len(clone.scaled) != 3 || len(swept.scaled) != 2 {
		t.Fatalf("clone's entry leaked: clone %d, parent %d", len(clone.scaled), len(swept.scaled))
	}
}

// TestSweepBERMatchesSerial pins the three entry points of the one probe —
// EvalWithModel, SweepBER's slots and evalAt at Repeats 1 — to the same
// float64 bits for the same (net, BER) at 1 and 4 workers: those of the
// probe written out by hand, serially, on the network itself (a fresh
// corruptor calibrated on it, one weight corruption, one pass over the
// prefix), which is the body EvalWithModel had before it became a case of
// evalAt.
func TestSweepBERMatchesSerial(t *testing.T) {
	tm := lenet(t)
	em := uniformModel(1)
	bers := []float64{1e-4, 1e-3, 5e-3}
	cfg := CharacterizeConfig{Prec: quant.FP32, MaxSamples: 40, Repeats: 1}

	setWorkers(t, 1)
	want := make([]float64, len(bers))
	for i, ber := range bers {
		net := tm.CloneNet()
		corr := NewSoftwareDRAM(em, quant.FP32)
		corr.BER = ber
		corr.CalibrateNet(tm, net, defaultCalibSamples, 0)
		want[i] = tm.MetricOf(net, corr.EvalOptions(40))
	}
	for _, w := range []int{1, 4} {
		setWorkers(t, w)
		swept := SweepBER(tm, tm.Net, em, bers, quant.FP32, 40)
		bounds := probeBounds(tm, tm.Net)
		for i, ber := range bers {
			for name, got := range map[string]float64{
				"EvalWithModel": EvalWithModel(tm, tm.Net, em, ber, quant.FP32, 40),
				"SweepBER":      swept[i],
				"evalAt":        evalAt(tm, tm.Net, em, ber, cfg, nil, bounds),
			} {
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("workers=%d ber=%g: %s = %v, the hand-written probe gives %v", w, ber, name, got, want[i])
				}
			}
		}
	}
}

// TestCoarseCharacterizeWorkerInvariant runs the binary search (whose
// repeated probes fan out) at several worker counts and demands the same
// tolerable BER.
func TestCoarseCharacterizeWorkerInvariant(t *testing.T) {
	tm := lenet(t)
	cfg := DefaultCharacterize()
	cfg.MaxSamples = 30
	cfg.Repeats = 2
	cfg.SearchSteps = 4
	em := uniformModel(0.01)

	setWorkers(t, 1)
	want := CoarseCharacterize(tm, tm.Net, em, cfg)
	for _, w := range []int{2, 4} {
		setWorkers(t, w)
		if got := CoarseCharacterize(tm, tm.Net, em, cfg); got != want {
			t.Fatalf("workers=%d: tolerable BER %v != %v", w, got, want)
		}
	}
}

// TestFineCharacterizeWorkerInvariant does the same for the fine-grained
// sweep, whose per-data-type probes run one per worker within a round.
func TestFineCharacterizeWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("fine characterization sweep in -short mode")
	}
	tm := lenet(t)
	cfg := DefaultCharacterize()
	cfg.MaxSamples = 20
	cfg.Repeats = 1
	cfg.SearchSteps = 3
	em := uniformModel(0.01)

	setWorkers(t, 1)
	want := FineCharacterize(tm, tm.Net, em, 1e-3, cfg, 2)
	setWorkers(t, 4)
	got := FineCharacterize(tm, tm.Net, em, 1e-3, cfg, 2)
	if len(got) != len(want) {
		t.Fatalf("map sizes differ: %d != %d", len(got), len(want))
	}
	for id, v := range want {
		if got[id] != v {
			t.Fatalf("data %s: tolerable BER %v != %v across worker counts", id, got[id], v)
		}
	}
}

// TestSharedWeakListsConcurrentCorruptors runs fresh corruptors built on
// one fitted model from several goroutines at once — what FineCharacterize's
// parallel probes do — and demands every one corrupt the weights exactly as
// a corruptor running alone does. The model is one LoadDeployment decoded,
// so its weak-cell lists do not exist until the goroutines race to create
// them. Run with -race.
func TestSharedWeakListsConcurrentCorruptors(t *testing.T) {
	var buf bytes.Buffer
	if err := coarseDeployment(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	corrupted := func(dep *Deployment, ber float64) []float32 {
		net, err := dep.CloneNet()
		if err != nil {
			t.Error(err)
			return nil
		}
		corr := dep.NewCorruptor()
		corr.BER = ber
		corr.CorruptWeights(net)
		var out []float32
		for _, p := range net.Params() {
			out = append(out, p.W.Data...)
		}
		return out
	}
	bers := []float64{1e-3, 5e-3, 2e-2}
	want := make([][]float32, len(bers))
	for i, ber := range bers {
		want[i] = corrupted(coarseDeployment(t), ber)
	}
	dep, err := LoadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dep.ErrorModel.Kind == errormodel.Model0 && dep.ErrorModel.P >= 1 {
		t.Fatal("the fitted model is all-weak: corruption would bypass the weak lists")
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := corrupted(dep, bers[g%len(bers)])
			for j, v := range want[g%len(bers)] {
				if got[j] != v && !(got[j] != got[j] && v != v) {
					t.Errorf("goroutine %d: corrupted weight %d = %v, alone %v", g, j, got[j], v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
