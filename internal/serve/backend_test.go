package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/compute"
	"repro/internal/quant"
)

// setBackend installs b as the process-wide compute backend for the rest of
// the test and restores the previous one afterwards.
func setBackend(t testing.TB, b compute.Backend) {
	t.Helper()
	prev := compute.Default()
	compute.SetDefault(b)
	t.Cleanup(func() { compute.SetDefault(prev) })
}

// TestPerModelBackend serves the same model from two servers, one while the
// process runs the ref backend and one while it runs gemm, and checks that
// (a) each server's Info reports the backend in force, and (b) a fixed
// (input, seed) request returns byte-identical outputs from both — the
// backend is a throughput knob, never a semantic one.
func TestPerModelBackend(t *testing.T) {
	setWorkers(t, 2)
	serveOn := func(b compute.Backend, in []float32) Result {
		setBackend(t, b)
		s := New(Config{MaxBatch: 2})
		defer s.Close()
		m := deployUniform(t, s, "LeNet", quant.Int8, 1e-4)
		if got := m.Info().Backend; got != b.Name() {
			t.Fatalf("backend %q, want %s", got, b.Name())
		}
		r, err := m.Predict(context.Background(), in, 42)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	in := testInputs(t, "LeNet", 1)[0]
	rRef, rGemm := serveOn(compute.Ref, in), serveOn(compute.Gemm, in)
	if !sameBits(rRef.Output, rGemm.Output) {
		t.Fatalf("output differs across backends: %v vs %v", rRef.Output, rGemm.Output)
	}
}

// TestHealthz covers the load-balancer probe through the drain sequence:
// 200 with the model count while serving, 503 "draining" after BeginDrain
// (predictions still succeed), 503 "closing" after Close.
func TestHealthz(t *testing.T) {
	setWorkers(t, 1)
	s := New(Config{MaxBatch: 1})
	deployUniform(t, s, "LeNet", quant.FP32, 0)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	probe := func() (int, HealthResponse) {
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}

	if code, hr := probe(); code != http.StatusOK || hr.Status != "ok" || hr.Models != 1 {
		t.Fatalf("healthz while serving: status %d body %+v", code, hr)
	}

	s.BeginDrain()
	if code, hr := probe(); code != http.StatusServiceUnavailable || hr.Status != "draining" {
		t.Fatalf("healthz while draining: status %d body %+v", code, hr)
	}
	// Requests already routed here must still be served during the drain.
	m, _ := s.Model("LeNet")
	in := make([]float32, m.Info().InputDims[0]*m.Info().InputDims[1]*m.Info().InputDims[2])
	if _, err := m.Predict(context.Background(), in, 1); err != nil {
		t.Fatalf("predict during drain: %v", err)
	}

	s.Close()
	if code, hr := probe(); code != http.StatusServiceUnavailable || hr.Status != "closing" {
		t.Fatalf("healthz after close: status %d body %+v", code, hr)
	}
}
