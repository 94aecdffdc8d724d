package serve

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"testing"

	"repro/internal/eden"
	"repro/internal/pin"
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
	setWorkers(t, 1)
	ref := New(Config{MaxBatch: 1})
	defer ref.Close()
	m, err := ref.Deploy(dep)
	if err != nil {
		t.Fatal(err)
	}
	want := predictAll(t, m, inputs, false)
	cases := []struct {
		name string
		dep  *eden.Deployment
		cfg  Config
		w    int
	}{
		{"fresh-batch8-workers4", dep, Config{MaxBatch: 8}, 4},
		{"loaded-batch1-workers1", loaded, Config{MaxBatch: 1, QueueDepth: 16}, 1},
		{"loaded-batch4-workers2", loaded, Config{MaxBatch: 4}, 2},
	}
	for _, tc := range cases {
		setWorkers(t, tc.w)
		s := New(tc.cfg)
		got, st := predictHeld(t, s, tc.dep, inputs)
		s.Close()
		if tc.cfg.MaxBatch > 1 && !multiBatch(st) {
			t.Fatalf("%s: no batch of two formed: %v", tc.name, st.BatchHist)
		}
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

// TestRegisterReservesName pins registration's one-name rule: of N
// concurrent registrations of one name exactly one wins and the losers,
// having built their models, fail at publication with "already registered";
// a failed build publishes nothing, so it cannot poison the name.
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

// TestUniformDeploymentPinnedBits holds raw-BER serving through
// eden.UniformDeployment to the bits the removed Server.Register served:
// the pins are the CRC-32s of its Predict outputs for testInputs sample i
// at seed i+1, recorded at the last commit that had it.
func TestUniformDeploymentPinnedBits(t *testing.T) {
	inputs := testInputs(t, "LeNet", 12)
	for _, tc := range []struct {
		prec quant.Precision
		ber  float64
	}{{quant.Int8, 5e-3}, {quant.FP32, 0}} {
		s := New(Config{MaxBatch: 1})
		m := deployUniform(t, s, "LeNet", tc.prec, tc.ber)
		for i, in := range inputs {
			res, err := m.Predict(context.Background(), in, uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			pin.Check(t, fmt.Sprintf("uniform/LeNet/%v/%g/%d", tc.prec, tc.ber, i+1), pin.CRC(res.Output))
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
		if pin.CRC(got[i]) != pin.CRC(want[i]) {
			t.Fatalf("sample %d differs after save/load", i)
		}
	}
}

// TestPipelineArtifactServedBitsPinned takes the artifact
// eden.TestDeployArtifactPinned pins (the lenet_pipeline workload's
// configuration; the two tests read one pin) one step further, to what a
// server answers from it: the CRC-32 of 64 outputs, in request order, served
// in full batches by sixteen callers with one pass at a time and with two.
// The pin was recorded at the last commit whose scheduler ran one pass.
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
	pin.Check(t, "artifact/LeNet/crc32", crc32.ChecksumIEEE(buf.Bytes()))
	inputs := testInputs(t, "LeNet", 64)
	for _, workers := range []int{1, 2} {
		setWorkers(t, workers)
		s := New(Config{MaxBatch: 4})
		m, err := s.Deploy(dep)
		if err != nil {
			t.Fatal(err)
		}
		outs := predictFrom(t, m, inputs, 16)
		s.Close()
		pin.Check(t, "artifact/LeNet/served-crc32", pin.CRC(outs...))
	}
}
