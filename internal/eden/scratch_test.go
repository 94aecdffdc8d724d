package eden

import (
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/errormodel"
	"repro/internal/memctrl"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// sparseModel is a Model-0 error model whose weak cells are a minority, so
// corruption goes through the cached weak-position lists instead of the
// all-weak uniform shortcut.
func sparseModel(ber float64) *errormodel.Model {
	return &errormodel.Model{Kind: errormodel.Model0, Seed: 9, RowBits: 16384, P: 0.05, FA: ber / 0.05}
}

// TestHookInPlaceAllocatesNothing is the steady-state promise of the
// scratch image: once a pooled clone has seen a network's layers, running
// its in-place hook over them again — quantize, inject, bound, dequantize,
// per layer — performs no allocation at all.
func TestHookInPlaceAllocatesNothing(t *testing.T) {
	tm := lenet(t)
	for name, em := range map[string]*errormodel.Model{"uniform": uniformModel(1e-3), "weak lists": sparseModel(1e-3)} {
		src := NewSoftwareDRAM(em, quant.Int8)
		src.ForceQuant = true
		src.Calibrate(tm, 16, 0)
		pool := NewClonePool(src)
		pool.Prewarm(1)

		// One slab per layer, as the fused forward would hand them over.
		var slabs []*tensor.Tensor
		x := tensor.New(1, tm.Net.InC, tm.Net.InH, tm.Net.InW)
		x.FillUniform(tensor.NewRNG(5), -1, 1)
		tm.Net.Forward(x, false, func(i int, l dnn.Layer, in *tensor.Tensor) *tensor.Tensor {
			slabs = append(slabs, in.Clone())
			return in
		})
		run := func(seed uint64) {
			c := pool.Get(seed)
			hook := c.(*SoftwareDRAM).IFMHookInPlace()
			for i, l := range tm.Net.Layers {
				if got := hook(i, l, slabs[i]); got != slabs[i] {
					t.Fatalf("%s: in-place hook returned a different tensor for layer %s", name, l.Name())
				}
			}
			pool.Put(c)
		}
		run(1) // warm: entries resolved, image grown, weak lists built
		// The hook closure itself is the one allocation a request makes.
		if allocs := testing.AllocsPerRun(20, func() { run(2) }); allocs > 1 {
			t.Errorf("%s: a warmed pooled clone allocates %v times per request, want the hook closure only", name, allocs)
		}
		c := pool.Get(3).(*SoftwareDRAM)
		hook := c.IFMHookInPlace()
		if allocs := testing.AllocsPerRun(20, func() {
			for i, l := range tm.Net.Layers {
				hook(i, l, slabs[i])
			}
		}); allocs != 0 {
			t.Errorf("%s: warmed IFMHookInPlace calls allocate %v times per pass, want 0", name, allocs)
		}
	}
}

// TestScratchImageLifetime pins the contract in corruptImage's comment: the
// returned image is the corruptor's scratch and the next call overwrites
// it, while everything the callers derive from it is theirs — IFMHook's
// result is a fresh tensor, and adopted int8 weight images own their codes.
func TestScratchImageLifetime(t *testing.T) {
	s := NewSoftwareDRAM(uniformModel(1e-2), quant.Int8)
	a, b := tensor.New(2, 40), tensor.New(3, 7)
	a.FillUniform(tensor.NewRNG(1), -1, 1)
	b.FillUniform(tensor.NewRNG(2), -4, 4)

	qa := s.corruptImage(a, s.state("ifm:a"))
	scaleA := qa.Scale
	outA := s.corruptTensor(a, "ifm:a") // same pass, same draws: the decoded image
	iw := dnn.Int8WeightsFromQTensor(s.corruptImage(a, s.state("ifm:a")))
	kept := append([]int8(nil), iw.Data...)

	qb := s.corruptImage(b, s.state("ifm:b"))
	if qa != qb {
		t.Fatal("corruptImage returned two different images; the corruptor should own exactly one")
	}
	if qb.Scale == scaleA || !qb.Shape.Equal(b.Shape()) || len(qb.Codes) != b.Size() {
		t.Fatalf("second call left the image describing the first tensor: scale %v shape %v", qb.Scale, qb.Shape)
	}
	want := NewSoftwareDRAM(uniformModel(1e-2), quant.Int8).corruptTensor(a, "ifm:a")
	for i := range want.Data {
		if outA.Data[i] != want.Data[i] {
			t.Fatalf("hook output element %d changed after the next corruption: %v != %v", i, outA.Data[i], want.Data[i])
		}
	}
	for i := range kept {
		if iw.Data[i] != kept[i] {
			t.Fatalf("adopted int8 image element %d changed after the next corruption", i)
		}
	}
}

// TestResolvedStateFollowsConfiguration: the per-data entries are a cache
// of the configuration, and every way the repository reconfigures a used
// corruptor — a BER sweep, recalibration, a policy change, bounds added
// after the fact, a pinned layout — must behave as if nothing were cached.
// Each step compares against a fresh corruptor given the same settings
// up front.
func TestResolvedStateFollowsConfiguration(t *testing.T) {
	x := tensor.New(1, 4, 6, 6)
	x.FillUniform(tensor.NewRNG(21), -1, 1)
	const id = "ifm:cfg"
	tight := memctrl.Bounds{Lo: -0.2, Hi: 0.3}

	type setup func(s *SoftwareDRAM)
	steps := []struct {
		name  string
		apply setup
	}{
		{"initial", func(s *SoftwareDRAM) { s.BER = 2e-2 }},
		{"BER raised", func(s *SoftwareDRAM) { s.BER = 1e-1 }},
		{"bounds added directly", func(s *SoftwareDRAM) { s.Bounds[id] = tight }},
		{"policy changed", func(s *SoftwareDRAM) { s.SetPolicy(memctrl.Saturate) }},
		{"layout pinned", func(s *SoftwareDRAM) { s.SetLayout(map[string]int{id: 5 * 16384}, 6*16384) }},
		{"per-data override", func(s *SoftwareDRAM) { s.BERByData = map[string]float64{id: 3e-1} }},
		{"BER lowered to zero with override gone", func(s *SoftwareDRAM) { s.BERByData = nil; s.BER = 0; s.ForceQuant = true }},
	}
	for _, em := range []*errormodel.Model{uniformModel(1), sparseModel(1)} {
		used := NewSoftwareDRAM(em, quant.Int8)
		for n := range steps {
			steps[n].apply(used)
			fresh := NewSoftwareDRAM(em, quant.Int8)
			for _, st := range steps[:n+1] {
				st.apply(fresh)
			}
			got, want := used.corruptTensor(x, id), fresh.corruptTensor(x, id)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%v model, after %q: element %d is %v on the reconfigured corruptor, %v on a fresh one",
						em.P, steps[n].name, i, got.Data[i], want.Data[i])
				}
			}
			// A clone taken now carries the entries and must agree too.
			if c := used.Clone(0).corruptTensor(x, id); math.Float32bits(c.Data[0]) != math.Float32bits(want.Data[0]) {
				t.Fatalf("%v model, after %q: clone diverged from its source", em.P, steps[n].name)
			}
		}
	}

	// Recalibration overwrites Bounds entries in place — the change refresh
	// cannot watch for — so CalibrateNet has to start a new generation.
	tm := lenet(t)
	probe := tensor.New(1, tm.Net.InC, tm.Net.InH, tm.Net.InW)
	probe.FillUniform(tensor.NewRNG(4), -1, 1)
	layer := IFMID(tm.Net.Layers[0].Name())
	recal := NewSoftwareDRAM(uniformModel(5e-2), quant.Int8)
	recal.Calibrate(tm, 8, 0.01) // absurdly tight: nearly everything is implausible
	clipped := recal.corruptTensor(probe, layer)
	recal.Calibrate(tm, 8, 0)
	fresh := NewSoftwareDRAM(uniformModel(5e-2), quant.Int8)
	fresh.Calibrate(tm, 8, 0)
	got, want := recal.corruptTensor(probe, layer), fresh.corruptTensor(probe, layer)
	differs := false
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("after recalibration element %d is %v, a freshly calibrated corruptor gives %v", i, got.Data[i], want.Data[i])
		}
		differs = differs || got.Data[i] != clipped.Data[i]
	}
	if !differs {
		t.Fatal("the tight calibration did not change the output, so this test shows nothing")
	}
}
