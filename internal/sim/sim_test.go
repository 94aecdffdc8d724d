package sim

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/pin"
	"repro/internal/quant"
)

func workload(t *testing.T, name string, prec quant.Precision, batch int) Workload {
	t.Helper()
	spec, err := dnn.LookupSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	net, err := dnn.BuildModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return FromModel(spec, net, prec, batch)
}

// tRCD is nominal DRAM timing with tRCD set to trcd ns.
func tRCD(trcd float64) dram.Timing {
	tim := dram.NominalTiming()
	tim.TRCD = trcd
	return tim
}

// TestSystemModelsPinned holds every number the platforms can print — the
// energy savings, then the speedup, of the CPU, GPU, Eyeriss and TPU — over
// every zoo model, both precisions, batch 1 and 16, two voltages, three
// tRCDs and both DRAM technologies, to a CRC-32 of their float64 bits. The
// pin was computed with the per-platform packages this one replaced.
func TestSystemModelsPinned(t *testing.T) {
	systems := []System{Table4CPU(), Table5GPU(), Eyeriss(), TPU()}
	var b []byte
	put := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	for _, spec := range dnn.Zoo {
		net, err := dnn.BuildModel(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, prec := range []quant.Precision{quant.FP32, quant.Int8} {
			for _, batch := range []int{1, 16} {
				w := FromModel(spec, net, prec, batch)
				for _, vdd := range []float64{1.0, 1.25} {
					for _, trcd := range []float64{0, 6.5, 12.5} {
						for _, p := range []Power{DDR4(), LPDDR3()} {
							for _, s := range systems {
								put(EnergySavings(s, w, p, vdd, tRCD(trcd)))
								put(Speedup(s, w, tRCD(trcd)))
							}
						}
					}
				}
			}
		}
	}
	pin.Check(t, "sim/system-models/crc32", crc32.ChecksumIEEE(b))
}

// TestSection7Claims encodes the paper's §7 findings, one inequality per
// claim, on the workloads the reports run: int8 at batch 16 on the CPU and
// GPU, batch 1 on the accelerators. Each finding is a subtest holding the
// claims that make it up.
func TestSection7Claims(t *testing.T) {
	cpu, gpu := Table4CPU(), Table5GPU()
	yolo := workload(t, "YOLO", quant.Int8, 16)
	tiny := workload(t, "YOLO-Tiny", quant.Int8, 16)
	vgg := workload(t, "VGG-16", quant.Int8, 16)

	yolo7 := Speedup(cpu, yolo, tRCD(7))
	yoloEDEN, yoloIdeal := Speedup(cpu, yolo, tRCD(6.5)), Speedup(cpu, yolo, tRCD(0))
	squeeze := Speedup(cpu, workload(t, "SqueezeNet1.1", quant.Int8, 16), tRCD(7))
	resnet := Speedup(cpu, workload(t, "ResNet101", quant.Int8, 16), tRCD(7))
	vggE := EnergySavings(cpu, vgg, DDR4(), 1.0, tRCD(6.5))
	vggE125 := EnergySavings(cpu, vgg, DDR4(), 1.25, tRCD(6.5))
	vggE32 := EnergySavings(cpu, workload(t, "VGG-16", quant.FP32, 16), DDR4(), 1.0, tRCD(6.5))
	gpuTiny, gpuYOLO := Speedup(gpu, tiny, tRCD(6.5)), Speedup(gpu, yolo, tRCD(6.5))
	gpuTiny7 := Speedup(gpu, tiny, tRCD(7))

	type claim struct {
		paper, inequality string
		holds             bool
		values            []float64
	}
	var gpuEnergy, accelSpeedup, accelDDR4 []claim
	for _, name := range []string{"YOLO", "YOLO-Tiny"} {
		e := EnergySavings(gpu, workload(t, name, quant.Int8, 16), DDR4(), 1.0, tRCD(6.5))
		gpuEnergy = append(gpuEnergy, claim{"§7.2 GPU: DRAM energy savings", fmt.Sprintf("0.20 ≤ %s ≤ 0.50", name), e >= 0.2 && e <= 0.5, []float64{e}})
	}
	for _, a := range []Accel{Eyeriss(), TPU()} {
		for _, name := range []string{"AlexNet", "YOLO-Tiny"} {
			w := workload(t, name, quant.Int8, 1)
			s := Speedup(a, w, tRCD(0))
			e := EnergySavings(a, w, DDR4(), 1.0, tRCD(0))
			accelSpeedup = append(accelSpeedup, claim{"§7.2 accelerators: double buffering hides tRCD", fmt.Sprintf("%s/%s speedup = 1", a.Name, name), s == 1, []float64{s}})
			accelDDR4 = append(accelDDR4, claim{"§7.2 accelerators: DDR4 energy savings", fmt.Sprintf("0.25 ≤ %s/%s ≤ 0.40", a.Name, name), e >= 0.25 && e <= 0.40, []float64{e}})
		}
	}
	alex := workload(t, "AlexNet", quant.Int8, 1)
	ddr4 := EnergySavings(Eyeriss(), alex, DDR4(), 1.0, tRCD(0))
	lp := EnergySavings(Eyeriss(), alex, LPDDR3(), 1.0, tRCD(0))

	findings := []struct {
		name   string
		claims []claim
	}{
		{"ReducedTRCDSpeedsUp", []claim{
			{"Fig. 14: reduced tRCD speeds YOLO up, tRCD=0 most", "1 < YOLO@7ns ≤ YOLO@0ns", 1 < yolo7 && yolo7 <= yoloIdeal, []float64{yolo7, yoloIdeal}},
		}},
		{"YOLOMostLatencySensitive", []claim{
			{"Fig. 14: YOLO speeds up by several percent", "YOLO ≥ 1.04", yolo7 >= 1.04, []float64{yolo7}},
			{"Fig. 14: YOLO tops SqueezeNet and ResNet", "YOLO > SqueezeNet, ResNet", yolo7 > squeeze && yolo7 > resnet, []float64{yolo7, squeeze, resnet}},
			{"Fig. 14: SqueezeNet is not latency bound", "SqueezeNet ≤ 1.02", squeeze <= 1.02, []float64{squeeze}},
		}},
		{"EDENCloseToIdealShape", []claim{
			{"Fig. 14: EDEN captures much of the ideal speedup", "(EDEN−1)/(ideal−1) ≥ 0.35", (yoloEDEN-1)/(yoloIdeal-1) >= 0.35, []float64{yoloEDEN, yoloIdeal}},
		}},
		{"EnergySavingsBand", []claim{
			{"Fig. 13: CPU DRAM energy savings", "0.15 ≤ VGG-16 ≤ 0.40", vggE >= 0.15 && vggE <= 0.40, []float64{vggE}},
			{"Fig. 13: a smaller ΔVDD saves less", "VGG-16@1.25V < VGG-16@1.0V", vggE125 < vggE, []float64{vggE125, vggE}},
		}},
		{"FP32AndInt8SaveSimilarly", []claim{
			{"Fig. 13: FP32 and int8 save alike", "|FP32 − int8| ≤ 0.05", math.Abs(vggE32-vggE) <= 0.05, []float64{vggE32, vggE}},
		}},
		{"YOLOTinyGainsMoreThanYOLO", []claim{
			{"§7.2 GPU: warps hide YOLO's latency, not YOLO-Tiny's", "YOLO-Tiny > YOLO", gpuTiny > gpuYOLO, []float64{gpuTiny, gpuYOLO}},
			{"§7.2 GPU: YOLO barely speeds up", "YOLO ≤ 1.04", gpuYOLO <= 1.04, []float64{gpuYOLO}},
			{"§7.2 GPU: YOLO-Tiny speeds up a few percent", "YOLO-Tiny ≥ 1.02", gpuTiny >= 1.02, []float64{gpuTiny}},
		}},
		{"SpeedupBoundedByIdeal", []claim{
			{"§7.2 GPU: tRCD=0 bounds the speedup; nominal timing gives exactly 1", "YOLO-Tiny@7ns ≤ YOLO-Tiny@0ns, nominal = 1",
				gpuTiny7 <= Speedup(gpu, tiny, tRCD(0)) && Speedup(gpu, tiny, dram.NominalTiming()) == 1, []float64{gpuTiny7}},
		}},
		{"GPUEnergyBand", gpuEnergy},
		{"NoSpeedupFromTRCD", accelSpeedup},
		{"EnergySavingsDDR4Band", accelDDR4},
		{"EnergySavingsLPDDR3Smaller", []claim{
			{"§7.2 accelerators: LPDDR3's lower nominal VDD saves less", "0.12 ≤ LPDDR3 ≤ 0.30, LPDDR3 < DDR4",
				lp >= 0.12 && lp <= 0.30 && lp < ddr4, []float64{lp, ddr4}},
		}},
	}
	for _, f := range findings {
		t.Run(f.name, func(t *testing.T) {
			for _, c := range f.claims {
				if !c.holds {
					t.Errorf("%s: %s does not hold at %v", c.paper, c.inequality, c.values)
				}
			}
		})
	}
}

// TestRunCountsCommands: every platform takes time and issues DRAM reads
// and activations for a real network.
func TestRunCountsCommands(t *testing.T) {
	w := workload(t, "YOLO-Tiny", quant.Int8, 1)
	for _, p := range []struct {
		name string
		s    System
	}{{"CPU", Table4CPU()}, {"GPU", Table5GPU()}, {"Eyeriss", Eyeriss()}, {"TPU", TPU()}} {
		t.Run(p.name, func(t *testing.T) {
			if c := p.s.Run(w, dram.NominalTiming()); c.TimeNS <= 0 || c.Reads == 0 || c.Act == 0 {
				t.Fatalf("degenerate counts %+v", c)
			}
		})
	}
}

func TestTPUUnderutilizedOnMiniLayers(t *testing.T) {
	// A 256×256 array tiles tiny layers poorly; Eyeriss (12×14) does
	// better. SCALE-Sim shows the same effect.
	if tpu, ey := TPU().utilization(), Eyeriss().utilization(); tpu >= ey {
		t.Fatalf("TPU utilization %v not below Eyeriss %v", tpu, ey)
	}
}

func TestWorkloadBasics(t *testing.T) {
	w := workload(t, "LeNet", quant.FP32, 16)
	if w.ReadBytes <= 0 || w.WriteBytes <= 0 {
		t.Fatalf("empty traffic: %+v", w)
	}
	if w.SeqLines == 0 {
		t.Fatal("no sequential lines")
	}
}

func TestPrecisionScalesTraffic(t *testing.T) {
	fp32 := workload(t, "VGG-16", quant.FP32, 16)
	int8 := workload(t, "VGG-16", quant.Int8, 16)
	ratio := float64(fp32.ReadBytes) / float64(int8.ReadBytes)
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("FP32/int8 traffic ratio %v, want ~4", ratio)
	}
}

func TestYOLOHasMoreRandomAccesses(t *testing.T) {
	yolo := workload(t, "YOLO", quant.Int8, 16)
	resnet := workload(t, "ResNet101", quant.Int8, 16)
	yoloFrac := float64(yolo.RandLines) / float64(yolo.SeqLines+yolo.RandLines)
	resnetFrac := float64(resnet.RandLines) / float64(resnet.SeqLines+resnet.RandLines)
	if yoloFrac <= resnetFrac*3 {
		t.Fatalf("YOLO random fraction %v not clearly above ResNet %v", yoloFrac, resnetFrac)
	}
}

func TestActivations(t *testing.T) {
	w := Workload{SeqLines: 320, RandLines: 10, WriteLines: 0}
	// 320 sequential lines at 32 lines/row = 10 activations, plus 10 random.
	if got := w.counts(0).Act; got != 20 {
		t.Fatalf("activations = %d, want 20", got)
	}
}

func TestBatchScalesIFMTrafficOnly(t *testing.T) {
	spec, _ := dnn.LookupSpec("LeNet")
	net, _ := dnn.BuildModel("LeNet")
	b1 := FromModel(spec, net, quant.FP32, 1)
	b16 := FromModel(spec, net, quant.FP32, 16)
	// Weights read once per batch, IFMs per sample: traffic grows by the
	// IFM bytes of the 15 extra samples and nothing else.
	if got, want := b16.ReadBytes-b1.ReadBytes, 15*net.IFMBytes(quant.FP32); got != want {
		t.Fatalf("batch growth %d, want 15×IFM %d", got, want)
	}
}

func TestEnergyComponentsAdditive(t *testing.T) {
	p := DDR4()
	if base := p.Energy(Counts{}, p.NominalVDD); base != 0 {
		t.Fatalf("empty counts consume %v nJ", base)
	}
	if eAct := p.Energy(Counts{Act: 10}, p.NominalVDD); math.Abs(eAct-10*p.EAct) > 1e-9 {
		t.Fatalf("10 ACTs = %v nJ, want %v", eAct, 10*p.EAct)
	}
	eAll := p.Energy(Counts{Act: 1, Reads: 2, Writes: 3, TimeNS: 100}, p.NominalVDD)
	want := p.EAct + 2*p.ERead + 3*p.EWrite + 100*(p.PBackground+p.PRefresh)
	if math.Abs(eAll-want) > 1e-9 {
		t.Fatalf("combined = %v, want %v", eAll, want)
	}
}

func TestVoltageScalingQuadratic(t *testing.T) {
	p := DDR4()
	c := Counts{Reads: 1000, TimeNS: 1000}
	eNom := p.Energy(c, p.NominalVDD)
	eLow := p.Energy(c, 1.0)
	ratio := 1.0 / p.NominalVDD
	wantScale := p.VddScalableFrac*ratio*ratio + (1 - p.VddScalableFrac)
	if math.Abs(eLow/eNom-wantScale) > 1e-9 {
		t.Fatalf("scale = %v, want %v", eLow/eNom, wantScale)
	}
	if eLow >= eNom {
		t.Fatal("voltage reduction did not save energy")
	}
}

func TestPaperCalibrationDDR4(t *testing.T) {
	// At the paper's most aggressive ΔVDD (-0.35V), DDR4 savings should be
	// in the ~30% band the accelerators report (§7.2).
	c := Counts{Act: 1000, Reads: 50000, Writes: 10000, TimeNS: 1e6}
	if s := DDR4().Savings(c, c, 1.0); s < 0.25 || s > 0.40 {
		t.Fatalf("DDR4 savings at 1.0V = %.3f, want ~0.31", s)
	}
}

func TestPaperCalibrationLPDDR3(t *testing.T) {
	// LPDDR3 has less voltage headroom; the paper reports ~21% savings.
	c := Counts{Act: 1000, Reads: 50000, Writes: 10000, TimeNS: 1e6}
	if s := LPDDR3().Savings(c, c, 1.0); s < 0.15 || s > 0.28 {
		t.Fatalf("LPDDR3 savings at 1.0V = %.3f, want ~0.21", s)
	}
}

func TestReducedTimeSavesBackgroundEnergy(t *testing.T) {
	p := DDR4()
	slow := Counts{Reads: 1000, TimeNS: 2e6}
	fast := Counts{Reads: 1000, TimeNS: 1.5e6}
	if s := p.Savings(slow, fast, p.NominalVDD); s <= 0 {
		t.Fatalf("faster execution saved %v", s)
	}
}

func TestBadVDDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero VDD should panic")
		}
	}()
	DDR4().Energy(Counts{}, 0)
}
