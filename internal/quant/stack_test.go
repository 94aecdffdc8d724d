package quant_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/cpufeat"
	"repro/internal/dnn"
	"repro/internal/eden"
	"repro/internal/errormodel"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The tests in this file run the layers above the codecs — corrupted
// forward passes over the zoo, the serving scheduler, the sharded cluster —
// once with every assembly kernel on and once on the scalar bodies
// (cpufeat.SetVec) and demand the same bits from both. The root package's
// TestDeterminismMatrix holds the same surfaces to pinned CRCs.

// setBackend installs b as the process-wide compute backend for the rest of
// the test and restores the previous one afterwards.
func setBackend(t testing.TB, b compute.Backend) {
	t.Helper()
	prev := compute.Default()
	compute.SetDefault(b)
	t.Cleanup(func() { compute.SetDefault(prev) })
}

// forEachVecPath runs f as a subtest with the assembly kernels on and again
// on their scalar bodies, skipping the first where there are none.
func forEachVecPath(t *testing.T, f func(t *testing.T)) {
	for _, path := range []string{"vec", "scalar"} {
		t.Run(path, func(t *testing.T) {
			if path == "vec" && !cpufeat.X86.HasAVX2 {
				t.Skip("no vector kernels on this build or CPU")
			}
			t.Cleanup(cpufeat.SetVec(path == "vec"))
			f(t)
		})
	}
}

// onBothPaths runs f on each path and returns what it produced. Where
// there is no vector path the scalar result stands for both.
func onBothPaths[T any](t *testing.T, f func(t *testing.T) T) (vec, scalar T) {
	t.Helper()
	var got []T // vector first: forEachVecPath's order
	forEachVecPath(t, func(t *testing.T) { got = append(got, f(t)) })
	if len(got) == 0 {
		t.FailNow() // f failed on every path and has said why
	}
	return got[0], got[len(got)-1]
}

func assertSameBits(t *testing.T, desc string, vec, scalar []float32) {
	t.Helper()
	if len(vec) != len(scalar) || len(scalar) == 0 {
		t.Fatalf("%s: %d values on the vector path, %d on the scalar path", desc, len(vec), len(scalar))
	}
	for i := range scalar {
		if math.Float32bits(vec[i]) != math.Float32bits(scalar[i]) {
			t.Fatalf("%s: element %d is %v on the vector path, %v on the scalar path", desc, i, vec[i], scalar[i])
		}
	}
}

// TestCorruptedZooBitIdenticalOnBothVecPaths pushes every zoo architecture
// through corrupted weights and corrupted IFMs, on every backend and at
// every integer precision.
func TestCorruptedZooBitIdenticalOnBothVecPaths(t *testing.T) {
	for _, spec := range dnn.Zoo {
		net, err := dnn.BuildModel(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(2, net.InC, net.InH, net.InW)
		x.FillUniform(tensor.NewRNG(0xB17), -1, 1)
		for _, prec := range []quant.Precision{quant.Int16, quant.Int8, quant.Int4} {
			for _, be := range []compute.Backend{compute.Ref, compute.Gemm, compute.QGemm} {
				t.Run(spec.Name+"/"+prec.String()+"/"+be.Name(), func(t *testing.T) {
					vec, scalar := onBothPaths(t, func(t *testing.T) []float32 {
						setBackend(t, be)
						corr := eden.NewSoftwareDRAM(errormodel.Uniform(2e-3), prec)
						defer corr.CorruptWeights(net)()
						return net.Forward(x, false, corr.IFMHook()).Data
					})
					assertSameBits(t, "forward output", vec, scalar)
				})
			}
		}
	}
}

// TestServeBitIdenticalOnBothVecPaths serves an int8 LeNet at a stiff BER
// through the batching scheduler with concurrent callers.
func TestServeBitIdenticalOnBothVecPaths(t *testing.T) {
	tm := dnn.MustPretrained("LeNet")
	rng := tensor.NewRNG(0x5E12E)
	inputs := make([][]float32, 12)
	for i := range inputs {
		x := tensor.New(1, tm.Net.InC, tm.Net.InH, tm.Net.InW)
		x.FillUniform(rng, -1, 1)
		inputs[i] = x.Data
	}
	vec, scalar := onBothPaths(t, func(t *testing.T) []float32 {
		s := serve.New(serve.Config{MaxBatch: 8})
		defer s.Close()
		dep, err := eden.UniformDeployment("LeNet", quant.Int8, 5e-3)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Deploy(dep)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([][]float32, len(inputs))
		errs := make([]error, len(inputs))
		var wg sync.WaitGroup
		for i := range inputs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := m.Predict(context.Background(), inputs[i], 1000+uint64(i))
				outs[i], errs[i] = res.Output, err
			}(i)
		}
		wg.Wait()
		var all []float32
		for i := range outs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			all = append(all, outs[i]...)
		}
		return all
	})
	assertSameBits(t, "served outputs", vec, scalar)
}

// TestClusterBitIdenticalOnBothVecPaths deploys LeNet once, then serves
// the artifact through a two-stage loopback cluster on each path.
func TestClusterBitIdenticalOnBothVecPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the deploy pipeline")
	}
	cfg := eden.DefaultDeploy("A")
	cfg.Rounds = 0
	cfg.Char.MaxSamples = 20
	cfg.Char.Repeats = 1
	cfg.Char.SearchSteps = 4
	cfg.Char.MaxDrop = 0.05
	vecDep, scalarDep := onBothPaths(t, func(t *testing.T) []byte {
		dep, err := eden.Deploy("LeNet", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dep.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
	if !bytes.Equal(vecDep, scalarDep) {
		t.Fatal("the deploy pipeline wrote different artifacts on the vector and scalar paths")
	}
	dep, err := eden.LoadDeployment(bytes.NewReader(scalarDep))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(0xE2E)
	inputs := make([][]float32, 6)
	for i := range inputs {
		x := tensor.New(1, dep.Net.InC, dep.Net.InH, dep.Net.InW)
		x.FillUniform(rng, -1, 1)
		inputs[i] = x.Data
	}
	vec, scalar := onBothPaths(t, func(t *testing.T) []float32 {
		// A fixed cut, so both paths run the same two stages.
		slices, err := cluster.SliceAll(dep, cluster.Plan{Ranges: [][2]int{{0, 2}, {2, len(dep.Net.Layers)}}})
		if err != nil {
			t.Fatal(err)
		}
		urls := make([][]string, len(slices))
		for k, s := range slices {
			srv := serve.New(serve.Config{MaxBatch: 4, QueueDepth: 128})
			if _, err := srv.DeployStage(s); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(serve.NewHandler(srv))
			defer srv.Close()
			defer ts.Close()
			urls[k] = []string{ts.URL}
		}
		d, err := cluster.NewDispatcher(cluster.DispatcherConfig{Model: "LeNet", Stages: urls, HealthInterval: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		front := httptest.NewServer(d.Handler())
		defer front.Close()
		var all []float32
		for i, in := range inputs {
			body, err := json.Marshal(serve.PredictRequest{Input: in, Seed: uint64(7 + i)})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := front.Client().Post(front.URL+"/v1/models/LeNet/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var out serve.PredictResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("input %d: status %d, decode error %v", i, resp.StatusCode, err)
			}
			all = append(all, out.Output...)
		}
		return all
	})
	assertSameBits(t, "cluster outputs", vec, scalar)
}
