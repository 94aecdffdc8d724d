package eden

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/dram"
	"repro/internal/quant"
)

// fastDeployConfig keeps Deploy cheap for tests: no boosting, shallow
// characterization search, small evaluation prefix.
func fastDeployConfig() DeployConfig {
	cfg := DefaultDeploy("A")
	cfg.Rounds = 0
	cfg.Char.MaxSamples = 20
	cfg.Char.Repeats = 1
	cfg.Char.SearchSteps = 4
	cfg.Char.MaxDrop = 0.05
	return cfg
}

var (
	deployOnce sync.Once
	deployDep  *Deployment
	deployErr  error
)

// coarseDeployment runs the fast coarse Deploy once and shares the (read-
// only) artifact across tests.
func coarseDeployment(t *testing.T) *Deployment {
	t.Helper()
	deployOnce.Do(func() {
		deployDep, deployErr = Deploy("LeNet", fastDeployConfig())
	})
	if deployErr != nil {
		t.Fatal(deployErr)
	}
	return deployDep
}

func TestDeployCoarseArtifact(t *testing.T) {
	dep := coarseDeployment(t)
	if dep.ModelName != "LeNet" || dep.Vendor != "A" {
		t.Fatalf("identity fields: %+v", dep)
	}
	if dep.TolerableBER <= 0 {
		t.Fatal("deployment characterized no tolerable BER")
	}
	if dep.TolerableBER < dep.BaselineTolBER {
		t.Fatalf("pipeline regressed tolerance: %v -> %v", dep.BaselineTolBER, dep.TolerableBER)
	}
	if dep.Op.VDD > dram.NominalVDD || dep.Op.Timing.TRCD > dram.NominalTiming().TRCD {
		t.Fatalf("mapped operating point above nominal: %+v", dep.Op)
	}
	if dep.DeltaVDD > 0 || dep.DeltaTRCD > 0 {
		t.Fatalf("positive deltas: ΔVDD %v ΔtRCD %v", dep.DeltaVDD, dep.DeltaTRCD)
	}
	// The accuracy guarantee of §3.4: the op the artifact serves at must
	// not exceed the characterized tolerance.
	if dep.ServingBER > dep.TolerableBER*1.05 {
		t.Fatalf("serving BER %v exceeds tolerance %v", dep.ServingBER, dep.TolerableBER)
	}
	if dep.Net == nil {
		t.Fatal("deployment carries no network")
	}
	if len(dep.Bounds) == 0 {
		t.Fatal("deployment carries no calibrated bounds")
	}
	if got := dep.Net.WeightBytes(dep.Prec); dep.WeightBytes != got {
		t.Fatalf("weight bytes %d, want %d", dep.WeightBytes, got)
	}
	if dep.FineGrained {
		t.Fatal("coarse deployment claims fine-grained mapping")
	}
}

// TestDeploySaveLoadRoundTrip pins the artifact serialization: loading a
// saved deployment and saving it again must reproduce the bytes exactly,
// and the loaded state must match the original field for field.
func TestDeploySaveLoadRoundTrip(t *testing.T) {
	dep := coarseDeployment(t)
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)

	loaded, err := LoadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelName != dep.ModelName || loaded.Vendor != dep.Vendor || loaded.Prec != dep.Prec {
		t.Fatalf("loaded identity %+v vs %+v", loaded, dep)
	}
	if loaded.TolerableBER != dep.TolerableBER || loaded.ServingBER != dep.ServingBER ||
		loaded.Op != dep.Op || loaded.DeltaVDD != dep.DeltaVDD {
		t.Fatal("loaded operating point diverged")
	}
	if len(loaded.Bounds) != len(dep.Bounds) {
		t.Fatalf("loaded %d bounds, want %d", len(loaded.Bounds), len(dep.Bounds))
	}
	src, dst := dep.Net.StateTensors(), loaded.Net.StateTensors()
	if len(src) != len(dst) {
		t.Fatalf("loaded %d state tensors, want %d", len(dst), len(src))
	}
	for i := range src {
		for j := range src[i].T.Data {
			if src[i].T.Data[j] != dst[i].T.Data[j] {
				t.Fatalf("tensor %s element %d differs after round trip", src[i].Name, j)
			}
		}
	}

	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatalf("save→load→save not byte-identical: %d vs %d bytes", len(first), again.Len())
	}
}

func TestLoadDeploymentRejectsGarbage(t *testing.T) {
	if _, err := LoadDeployment(bytes.NewReader([]byte("NOTADEPLOY"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	dep := coarseDeployment(t)
	if err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDeployment(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated artifact accepted")
	}
}

// TestLoadDeploymentShortHeaderAllocatesLittle feeds a header that claims
// the largest metadata length the loader accepts and then ends: the load
// must fail without first allocating the claimed 64 MiB.
func TestLoadDeploymentShortHeaderAllocatesLittle(t *testing.T) {
	hdr := append([]byte(deployMagic), 0, 0, 0, 4) // uint32 1<<26, little-endian
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadDeployment(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header without metadata accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("12-byte artifact allocated %d bytes before failing", grew)
	}
}

// FuzzLoadDeployment feeds the artifact loader — and through it
// dnn.Network.Load's tensor section — arbitrary bytes: none may panic, and
// an accepted input, once saved, must load and save again to the same bytes.
func FuzzLoadDeployment(f *testing.F) {
	dep, err := UniformDeployment("LeNet", quant.Int8, 1e-4)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		f.Fatal(err)
	}
	art := buf.Bytes()
	f.Add(art)
	metaEnd := len(deployMagic) + 4 + int(binary.LittleEndian.Uint32(art[len(deployMagic):]))
	for _, n := range []int{len(deployMagic) + 2, len(deployMagic) + 4, metaEnd - 1, metaEnd, metaEnd + 10, len(art) / 2, len(art) - 1} {
		f.Add(art[:n])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := LoadDeployment(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := d.Save(&first); err != nil {
			t.Fatalf("accepted artifact does not save: %v", err)
		}
		again, err := LoadDeployment(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved artifact does not load: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("reloaded artifact does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save→load→save not byte-identical: %d vs %d bytes", first.Len(), second.Len())
		}
	})
}

// TestDeployFineGrained runs the full fine-grained flow — fine
// characterization, device partitioning, Algorithm-1 assignment — and
// checks the artifact's internal consistency.
func TestDeployFineGrained(t *testing.T) {
	if testing.Short() {
		t.Skip("fine-grained deployment in -short mode")
	}
	cfg := fastDeployConfig()
	cfg.FineGrained = true
	cfg.FineRounds = 2
	dep, err := Deploy("LeNet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.FineGrained {
		t.Skip("fine mapping fell back to coarse (no partition tolerable)")
	}
	if len(dep.Partitions) != len(cfg.PartitionLevels) {
		t.Fatalf("%d partitions, want %d", len(dep.Partitions), len(cfg.PartitionLevels))
	}
	data := EnumerateData(dep.Net, dep.Prec)
	if len(dep.Assignment) != len(data) {
		t.Fatalf("assignment covers %d data types, want %d", len(dep.Assignment), len(data))
	}
	berOf := map[int]float64{}
	for _, p := range dep.Partitions {
		berOf[p.ID] = p.BER
	}
	for _, d := range data {
		p, ok := dep.Assignment[d.ID]
		if !ok {
			t.Fatalf("data %s unassigned", d.ID)
		}
		if berOf[p] > dep.TolByData[d.ID] {
			t.Fatalf("data %s in partition %d: BER %v above tolerance %v",
				d.ID, p, berOf[p], dep.TolByData[d.ID])
		}
		if dep.BERByData[d.ID] != berOf[p] {
			t.Fatalf("data %s BER override %v, want partition BER %v",
				d.ID, dep.BERByData[d.ID], berOf[p])
		}
	}
	// The fine artifact must survive serialization too.
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.FineGrained || len(loaded.Assignment) != len(dep.Assignment) {
		t.Fatalf("fine-grained state lost in round trip: %+v", loaded)
	}
}

// TestDeploymentCorruptorDeterminism: corruptors minted from the same
// artifact corrupt byte-identically at equal passes — the property serving
// builds on when it pools per-request clones.
func TestDeploymentCorruptorDeterminism(t *testing.T) {
	dep := coarseDeployment(t)
	net1, err := dep.CloneNet()
	if err != nil {
		t.Fatal(err)
	}
	net2, err := dep.CloneNet()
	if err != nil {
		t.Fatal(err)
	}
	c1 := dep.NewCorruptor().Clone(7)
	c2 := dep.NewCorruptor().Clone(7)
	c1.CorruptWeights(net1)
	c2.CorruptWeights(net2)
	s1, s2 := net1.StateTensors(), net2.StateTensors()
	for i := range s1 {
		for j := range s1[i].T.Data {
			if s1[i].T.Data[j] != s2[i].T.Data[j] {
				t.Fatalf("corruptors from one artifact diverged at %s[%d]", s1[i].Name, j)
			}
		}
	}
}

func TestDeployUnknownInputs(t *testing.T) {
	if _, err := Deploy("NoSuchModel", DefaultDeploy("A")); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Deploy("LeNet", DefaultDeploy("Z")); err == nil {
		t.Fatal("unknown vendor accepted")
	}
}

func TestVoltagePartitionsShape(t *testing.T) {
	vendor, _ := dram.VendorByName("A")
	levels := []float64{0.5, 1, 2}
	parts := VoltagePartitions(vendor, 1e-3, levels, 3000)
	if len(parts) != 3 {
		t.Fatalf("%d partitions, want 3", len(parts))
	}
	for i, p := range parts {
		if p.ID != i || p.Bits != 1000 {
			t.Fatalf("partition %d: %+v", i, p)
		}
		if p.BER != 1e-3*levels[i] {
			t.Fatalf("partition %d BER %v, want %v", i, p.BER, 1e-3*levels[i])
		}
		if i > 0 && parts[i].Op.VDD > parts[i-1].Op.VDD {
			t.Fatalf("higher-BER partition %d runs at higher voltage than %d", i, i-1)
		}
	}
	tol := map[string]float64{"w:a": 1e-3}
	tm := lenet(t)
	chars := DataTolerances(tm.Net, quant.Int8, tol)
	if len(chars) != len(EnumerateData(tm.Net, quant.Int8)) {
		t.Fatalf("DataTolerances dropped entries")
	}
}

// benchDeployConfig is the lenet_pipeline workload's configuration
// (internal/bench's deployConfig("LeNet")).
func benchDeployConfig() DeployConfig {
	cfg := DefaultDeploy("A")
	cfg.Prec = quant.Int8
	cfg.Char.MaxSamples = 30
	cfg.Char.Repeats = 1
	cfg.Char.SearchSteps = 5
	cfg.Rounds = 1
	cfg.RetrainEpochs = 2
	cfg.FineGrained = true
	return cfg
}

// TestDeployArtifactPinned pins the whole Fig. 4 flow — device reads,
// profile, fit and selection, characterization probes, retraining,
// partition measurement, Algorithm 1, calibration — to the artifact bytes
// the benchmark's traced pass reports (eden.artifact_crc32 /
// eden.artifact_bytes), at one worker and with the row, model and probe
// fan-outs active, on the vector kernels and on their scalar bodies.
func TestDeployArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("four full LeNet pipelines")
	}
	for _, vec := range []bool{true, false} {
		t.Cleanup(cpufeat.SetVec(vec))
		for _, workers := range []int{1, 2} {
			setWorkers(t, workers)
			dep, err := Deploy("LeNet", benchDeployConfig())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := dep.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := crc32.ChecksumIEEE(buf.Bytes()); got != 2152884835 || buf.Len() != 32253 {
				t.Fatalf("vec=%v workers=%d: artifact crc32 %d, %d bytes; want 2152884835, 32253", vec, workers, got, buf.Len())
			}
		}
	}
}
