package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/eden"
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

// uniformDeployment builds the raw-BER artifact of a zoo model.
func uniformDeployment(t testing.TB, name string, prec quant.Precision, ber float64) *eden.Deployment {
	t.Helper()
	dep, err := eden.UniformDeployment(name, prec, ber)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// deployUniform serves a zoo model at a raw BER: the one registration helper
// for every test that is not about a pipeline artifact.
func deployUniform(t testing.TB, s *Server, name string, prec quant.Precision, ber float64) *Model {
	t.Helper()
	m, err := s.Deploy(uniformDeployment(t, name, prec, ber))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pretrained is dnn.Pretrained for a test or benchmark, which an error ends.
func pretrained(tb testing.TB, name string) *dnn.TrainedModel {
	tb.Helper()
	tm, err := dnn.Pretrained(name)
	if err != nil {
		tb.Fatal(err)
	}
	return tm
}

// testInputs builds n deterministic flattened inputs for a model.
func testInputs(t *testing.T, name string, n int) [][]float32 {
	t.Helper()
	tm := pretrained(t, name)
	rng := tensor.NewRNG(0x5E12E)
	out := make([][]float32, n)
	for i := range out {
		x := tensor.New(1, tm.Net.InC, tm.Net.InH, tm.Net.InW)
		x.FillUniform(rng, -1, 1)
		out[i] = x.Data
	}
	return out
}

// sameBits reports whether two float32 slices hold the same bit patterns:
// the comparison every "byte-identical" claim in this package makes, under
// which -0 differs from +0 and a NaN equals itself.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// predictAll sends every input (seed 1000+i) and returns the outputs in
// input order: one at a time, or each from its own goroutine so
// micro-batches actually form.
func predictAll(t *testing.T, m *Model, inputs [][]float32, concurrent bool) [][]float32 {
	t.Helper()
	if concurrent {
		return predictFrom(t, m, inputs, len(inputs))
	}
	return predictFrom(t, m, inputs, 1)
}

// predictFrom is predictAll from a fixed number of closed-loop callers
// sharing the inputs between them, each taking the next unserved one.
func predictFrom(t *testing.T, m *Model, inputs [][]float32, callers int) [][]float32 {
	t.Helper()
	outs := make([][]float32, len(inputs))
	errs := make([]error, callers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(inputs) {
					return
				}
				// A full admission queue sheds instead of blocking; behave
				// like a well-mannered client and retry after a beat.
				res, err := m.Predict(context.Background(), inputs[i], 1000+uint64(i))
				for errors.Is(err, ErrQueueFull) {
					time.Sleep(200 * time.Microsecond)
					res, err = m.Predict(context.Background(), inputs[i], 1000+uint64(i))
				}
				if err != nil {
					errs[c] = err
					return
				}
				outs[i] = res.Output
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// multiBatch reports whether some batch carried two requests or more.
func multiBatch(st Snapshot) bool {
	for size, n := range st.BatchHist {
		if size >= 2 && n > 0 {
			return true
		}
	}
	return false
}

// TestBatchingDeterminism is the serving determinism contract: the same
// (input, seed) pair must produce byte-identical output whether it is
// served alone (MaxBatch 1), inside micro-batches, or at a different worker
// count. The model serves int8 at a stiff BER so the corrupted path is
// actually exercised.
func TestBatchingDeterminism(t *testing.T) {
	inputs := testInputs(t, "LeNet", 12)
	dep := uniformDeployment(t, "LeNet", quant.Int8, 5e-3)

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
		cfg  Config
		w    int
	}{
		{"batch8-workers1", Config{MaxBatch: 8}, 1},
		{"batch8-workers4", Config{MaxBatch: 8}, 4},
		{"batch3-workers2", Config{MaxBatch: 3}, 2},
	}
	for _, tc := range cases {
		setWorkers(t, tc.w)
		s := New(tc.cfg)
		got, st := predictHeld(t, s, dep, inputs)
		s.Close()
		if !multiBatch(st) {
			t.Fatalf("%s: no batch of two formed: %v", tc.name, st.BatchHist)
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: sample %d: %v, want the bits of %v", tc.name, i, got[i], want[i])
			}
		}
	}

	// Different seeds must give different corruption draws at this BER.
	s := New(Config{MaxBatch: 1})
	defer s.Close()
	m = deployUniform(t, s, "LeNet", quant.Int8, 0.2)
	a, err := m.Predict(context.Background(), inputs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Predict(context.Background(), inputs[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if sameBits(a.Output, b.Output) {
		t.Fatal("different request seeds produced identical outputs at BER 0.2")
	}
}

// TestConcurrentClients hammers one model from many goroutines; under
// -race (the CI race job covers this package) it is the data-race proof
// for the scheduler, the clone pool and the stats collector.
func TestConcurrentClients(t *testing.T) {
	setWorkers(t, 4)
	s := New(Config{MaxBatch: 4})
	defer s.Close()
	m := deployUniform(t, s, "LeNet", quant.Int8, 1e-3)
	inputs := testInputs(t, "LeNet", 4)
	const clients = 8
	const perClient = 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				in := inputs[(c+r)%len(inputs)]
				if _, err := m.Predict(context.Background(), in, uint64(c*100+r)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := m.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("stats recorded %d requests, want %d", st.Requests, clients*perClient)
	}
	var histTotal uint64
	for size, n := range st.BatchHist {
		if size > s.Config().MaxBatch && n > 0 {
			t.Fatalf("histogram records batches of %d > MaxBatch %d", size, s.Config().MaxBatch)
		}
		histTotal += uint64(size) * n
	}
	if histTotal != st.Requests {
		t.Fatalf("histogram accounts for %d requests, want %d", histTotal, st.Requests)
	}
	if st.QPS <= 0 || st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestPredictValidation covers the request-validation and lifecycle error
// paths.
func TestPredictValidation(t *testing.T) {
	s := New(Config{MaxBatch: 1})
	m := deployUniform(t, s, "LeNet", quant.FP32, 0)
	if _, err := m.Predict(context.Background(), []float32{1, 2, 3}, 0); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := s.Deploy(m.Deployment()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Predict(ctx, testInputs(t, "LeNet", 1)[0], 0); err == nil {
		t.Fatal("cancelled context accepted")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := m.Predict(context.Background(), testInputs(t, "LeNet", 1)[0], 0); err != ErrClosed {
		t.Fatalf("predict after close: %v, want ErrClosed", err)
	}
	if _, err := s.Deploy(uniformDeployment(t, "AlexNet", quant.FP32, 0)); err != ErrClosed {
		t.Fatalf("deploy after close: %v, want ErrClosed", err)
	}
}

// TestHTTPHandler exercises the three endpoints end to end, including the
// determinism of the HTTP path (same seed twice ⇒ same bytes).
func TestHTTPHandler(t *testing.T) {
	setWorkers(t, 2)
	s := New(Config{MaxBatch: 4})
	defer s.Close()
	deployUniform(t, s, "LeNet", quant.Int8, 1e-3)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []Info
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "LeNet" || infos[0].Precision != "int8" {
		t.Fatalf("model listing %+v", infos)
	}
	// int8 stores exactly one byte per parameter — the listing must report
	// the precision-aware footprint, not the old 4-bytes/param number.
	if infos[0].WeightBytes != infos[0].Params {
		t.Fatalf("int8 weight bytes %d, want %d (1 byte/param)", infos[0].WeightBytes, infos[0].Params)
	}

	in := testInputs(t, "LeNet", 1)[0]
	post := func(seed uint64) PredictResponse {
		body, _ := json.Marshal(PredictRequest{Input: in, Seed: seed})
		resp, err := http.Post(srv.URL+"/v1/models/LeNet/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
		var pr PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	a, b := post(7), post(7)
	if fmt.Sprint(a.Output) != fmt.Sprint(b.Output) {
		t.Fatal("same seed over HTTP produced different outputs")
	}
	if a.ArgMax < 0 || a.ArgMax >= len(a.Output) {
		t.Fatalf("argmax %d out of range", a.ArgMax)
	}

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["LeNet"].Requests != 2 {
		t.Fatalf("stats %+v, want 2 requests", stats["LeNet"])
	}

	// Error paths.
	resp, err = http.Post(srv.URL+"/v1/models/NoSuch/predict", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/models/LeNet/predict", "application/json", bytes.NewReader([]byte(`{"input":[1,2]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input status %d", resp.StatusCode)
	}
}
