package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eden"
	"repro/internal/quant"
)

var (
	depOnce   sync.Once
	depCached *eden.Deployment
	depErr    error
)

// testDeployment runs eden.Deploy once (cheap configuration, no boosting)
// and shares the artifact across the package's tests.
func testDeployment(t *testing.T) *eden.Deployment {
	t.Helper()
	depOnce.Do(func() {
		cfg := eden.DefaultDeploy("A")
		cfg.Prec = quant.Int8
		cfg.Rounds = 0
		cfg.Char.MaxSamples = 20
		cfg.Char.Repeats = 1
		cfg.Char.SearchSteps = 4
		cfg.Char.MaxDrop = 0.05
		depCached, depErr = eden.Deploy("LeNet", cfg)
	})
	if depErr != nil {
		t.Fatal(depErr)
	}
	return depCached
}

// TestDeployServeEndToEnd is the pipeline→artifact→serving contract: a zoo
// model deployed via eden.Deploy, round-tripped through the serialized
// artifact, and served through serve.Server must answer every (input, seed)
// pair byte-identically across batch sizes, worker counts and the
// save/load boundary — responses are a pure function of (deployment
// artifact, input, seed).
func TestDeployServeEndToEnd(t *testing.T) {
	dep := testDeployment(t)
	if dep.ServingBER <= 0 {
		t.Fatal("deployment serves at zero BER; corrupted path not exercised")
	}

	// Round-trip the artifact so the served state is exactly what a
	// cmd/serve -deployment invocation would load from disk.
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := eden.LoadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}

	inputs := testInputs(t, "LeNet", 10)
	run := func(d *eden.Deployment, cfg Config, workers int, concurrent bool) [][]float32 {
		setWorkers(t, workers)
		s := New(cfg)
		defer s.Close()
		m, err := s.Deploy(d)
		if err != nil {
			t.Fatal(err)
		}
		return predictAll(t, m, inputs, concurrent)
	}

	want := run(dep, Config{MaxBatch: 1}, 1, false)
	cases := []struct {
		name string
		dep  *eden.Deployment
		cfg  Config
		w    int
	}{
		{"fresh-batch8-workers4", dep, Config{MaxBatch: 8, MaxLatency: 20 * time.Millisecond}, 4},
		{"loaded-batch1-workers1", loaded, Config{MaxBatch: 1}, 1},
		{"loaded-batch4-workers2", loaded, Config{MaxBatch: 4, MaxLatency: 10 * time.Millisecond}, 2},
	}
	for _, tc := range cases {
		got := run(tc.dep, tc.cfg, tc.w, true)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: sample %d: %v, want the bits of %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestDeployRegistration covers the Deploy registration lifecycle.
func TestDeployRegistration(t *testing.T) {
	dep := testDeployment(t)
	s := New(Config{MaxBatch: 1})
	defer s.Close()
	m, err := s.Deploy(dep)
	if err != nil {
		t.Fatal(err)
	}
	if m.Deployment() != dep {
		t.Fatal("model lost its deployment metadata")
	}
	info := m.Info()
	if info.Precision != "int8" || info.BER != dep.ServingBER {
		t.Fatalf("info %+v", info)
	}
	detail := m.Detail()
	if detail.Deployment == nil || detail.Deployment.TolerableBER != dep.TolerableBER {
		t.Fatalf("detail %+v", detail)
	}
	// The name is taken, whatever artifact asks for it next.
	if _, err := s.Deploy(dep); err == nil {
		t.Fatal("duplicate Deploy accepted")
	}
	if _, err := s.Deploy(uniformDeployment(t, "LeNet", quant.FP32, 0)); err == nil {
		t.Fatal("uniform deployment over a deployed name accepted")
	}
	if _, err := s.Deploy(nil); err == nil {
		t.Fatal("nil deployment accepted")
	}
	res, err := m.Predict(context.Background(), testInputs(t, "LeNet", 1)[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ArgMax < 0 || res.ArgMax >= len(res.Output) {
		t.Fatalf("argmax %d out of range", res.ArgMax)
	}
}

// TestRegisterReservesName pins the duplicate-registration race fix: of N
// concurrent registrations of one name exactly one wins, the losers fail
// fast at reservation time, and a failed build releases its reservation
// instead of poisoning the name.
func TestRegisterReservesName(t *testing.T) {
	s := New(Config{MaxBatch: 1})
	defer s.Close()
	dep := uniformDeployment(t, "LeNet", quant.FP32, 0)
	const clients = 4
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Deploy(dep)
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
		} else if !strings.Contains(err.Error(), "already registered") {
			t.Fatalf("unexpected racer error: %v", err)
		}
	}
	if ok != 1 {
		t.Fatalf("%d successful registrations of one name, want 1", ok)
	}
	// A failed build must release the reservation: retrying an unknown model
	// reports the build error again, not "already registered".
	for i := 0; i < 2; i++ {
		_, err := s.Deploy(&eden.Deployment{ModelName: "NoSuchModel"})
		if err == nil {
			t.Fatal("unknown model accepted")
		}
		if strings.Contains(err.Error(), "already registered") {
			t.Fatalf("reservation leaked after failed load: %v", err)
		}
	}
}

// outputCRC is the CRC-32 of an output vector's little-endian bit patterns.
func outputCRC(out []float32) uint32 {
	b := make([]byte, 4*len(out))
	for i, v := range out {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return crc32.ChecksumIEEE(b)
}

// TestUniformDeploymentPinnedBits holds raw-BER serving through
// eden.UniformDeployment to the bits the removed Server.Register served:
// the constants are the CRC-32s of its Predict outputs for testInputs
// sample i at seed i+1, recorded at the last commit that had it.
func TestUniformDeploymentPinnedBits(t *testing.T) {
	inputs := testInputs(t, "LeNet", 12)
	for _, tc := range []struct {
		prec quant.Precision
		ber  float64
		want [12]uint32
	}{
		{quant.Int8, 5e-3, [12]uint32{
			0x1839c1cc, 0x700d98ec, 0xd13c3f16, 0xacc2a296, 0xc231c460, 0xe37c775b,
			0xca3b0178, 0x66d58618, 0x31103599, 0x24527ea9, 0x62dbb887, 0xae1fa01c}},
		{quant.FP32, 0, [12]uint32{
			0x7c0f05dd, 0xe4c0a390, 0x806edb5c, 0x7ffa8424, 0x8e963aa4, 0xf4b812c3,
			0x78b8d4a6, 0x52de5a82, 0xc28e8849, 0x84969f55, 0xc1c08871, 0x290cd0d1}},
	} {
		s := New(Config{MaxBatch: 1})
		m := deployUniform(t, s, "LeNet", tc.prec, tc.ber)
		for i, in := range inputs {
			res, err := m.Predict(context.Background(), in, uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			if got := outputCRC(res.Output); got != tc.want[i] {
				t.Errorf("%v at BER %v, seed %d: output CRC %#08x, Register served %#08x", tc.prec, tc.ber, i+1, got, tc.want[i])
			}
		}
		s.Close()
	}
}

// TestUniformDeploymentSaveLoad: a uniform deployment names no vendor, and
// still round-trips through the artifact encoding to serve the same bits.
func TestUniformDeploymentSaveLoad(t *testing.T) {
	dep := uniformDeployment(t, "LeNet", quant.Int8, 5e-3)
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := eden.LoadDeployment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Vendor != "" || loaded.ServingBER != 5e-3 || len(loaded.Bounds) != len(dep.Bounds) {
		t.Fatalf("loaded uniform deployment %+v", loaded)
	}
	inputs := testInputs(t, "LeNet", 4)
	serveAll := func(d *eden.Deployment) [][]float32 {
		s := New(Config{MaxBatch: 1})
		defer s.Close()
		m, err := s.Deploy(d)
		if err != nil {
			t.Fatal(err)
		}
		return predictAll(t, m, inputs, false)
	}
	want, got := serveAll(dep), serveAll(loaded)
	for i := range want {
		if outputCRC(got[i]) != outputCRC(want[i]) {
			t.Fatalf("sample %d differs after save/load", i)
		}
	}
}

// TestPipelineArtifactServedBitsPinned takes the artifact
// eden.TestDeployArtifactPinned pins (the lenet_pipeline workload's
// configuration, CRC-32 2152884835) one step further, to what a server
// answers from it: the CRC-32 of 64 outputs, in request order, served in
// full batches by sixteen callers with one pass at a time and with two. The
// constant was recorded at the last commit whose scheduler ran one pass.
func TestPipelineArtifactServedBitsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("a full LeNet pipeline")
	}
	cfg := eden.DefaultDeploy("A")
	cfg.Prec = quant.Int8
	cfg.Char.MaxSamples = 30
	cfg.Char.Repeats = 1
	cfg.Char.SearchSteps = 5
	cfg.Rounds = 1
	cfg.RetrainEpochs = 2
	cfg.FineGrained = true
	dep, err := eden.Deploy("LeNet", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := crc32.ChecksumIEEE(buf.Bytes()); got != 2152884835 {
		t.Fatalf("artifact crc32 %d, want the pinned 2152884835", got)
	}
	inputs := testInputs(t, "LeNet", 64)
	for _, workers := range []int{1, 2} {
		setWorkers(t, workers)
		s := New(Config{MaxBatch: 4})
		m, err := s.Deploy(dep)
		if err != nil {
			t.Fatal(err)
		}
		var all []float32
		for _, out := range predictFrom(t, m, inputs, 16) {
			all = append(all, out...)
		}
		s.Close()
		if got := outputCRC(all); got != 3755291986 {
			t.Fatalf("workers=%d: served outputs crc32 %d, want 3755291986", workers, got)
		}
	}
}
