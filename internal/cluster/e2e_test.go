package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eden"
	"repro/internal/serve"
	"repro/internal/tensor"
)

var (
	e2eOnce sync.Once
	e2eDep  *eden.Deployment
	e2eErr  error
)

// e2eDeployment runs one fast coarse LeNet deploy shared (read-only) by the
// cluster tests.
func e2eDeployment(t *testing.T) *eden.Deployment {
	t.Helper()
	e2eOnce.Do(func() {
		cfg := eden.DefaultDeploy("A")
		cfg.Rounds = 0
		cfg.Char.MaxSamples = 20
		cfg.Char.Repeats = 1
		cfg.Char.SearchSteps = 4
		cfg.Char.MaxDrop = 0.05
		e2eDep, e2eErr = eden.Deploy("LeNet", cfg)
	})
	if e2eErr != nil {
		t.Fatal(e2eErr)
	}
	return e2eDep
}

// startStage registers a stage slice on a fresh server and exposes it over
// a loopback HTTP listener.
func startStage(t *testing.T, slice *eden.Deployment, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(cfg)
	if _, err := srv.DeployStage(slice); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(srv))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// predictJSON round-trips one request through a dispatcher's (or server's)
// JSON predict endpoint.
func predictJSON(t *testing.T, client *http.Client, base, model string, input []float32, seed uint64) (serve.PredictResponse, int) {
	t.Helper()
	body, err := json.Marshal(serve.PredictRequest{Input: input, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/models/"+model+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// TestClusterBitIdenticalToSingleProcess is the tentpole's acceptance
// test: a K-stage pipeline behind a dispatcher must produce byte-identical
// outputs to single-process serving of the same deployment, for the same
// seeds, across serial and concurrent (batch-forming) traffic — wherever
// the partitioner happened to cut.
func TestClusterBitIdenticalToSingleProcess(t *testing.T) {
	dep := e2eDeployment(t)

	// Single-process reference.
	ref := serve.New(serve.Config{MaxBatch: 4})
	refModel, err := ref.Deploy(dep)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Cluster: partition into 2 stages where the timing probe suggests,
	// slice, serve each stage, front with a dispatcher.
	plan, err := PlanFor(dep, PartitionConfig{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	slices, err := SliceAll(dep, plan)
	if err != nil {
		t.Fatal(err)
	}
	// QueueDepth must absorb the fully-concurrent phase's whole fan-out:
	// this test is about bit-identity, and a race-mode-slow stage shedding
	// 429s (admission control working as designed) would fail it spuriously.
	stageURLs := make([][]string, len(slices))
	for k, s := range slices {
		_, ts := startStage(t, s, serve.Config{MaxBatch: 4, QueueDepth: 128})
		stageURLs[k] = []string{ts.URL}
	}
	d, err := NewDispatcher(DispatcherConfig{
		Model:          "LeNet",
		Stages:         stageURLs,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front := httptest.NewServer(d.Handler())
	defer front.Close()

	rng := tensor.NewRNG(0xE2E)
	nReq := 12
	if testing.Short() {
		nReq = 6
	}
	inputs := make([][]float32, nReq)
	for i := range inputs {
		x := tensor.New(1, dep.Net.InC, dep.Net.InH, dep.Net.InW)
		x.FillUniform(rng, -1, 1)
		inputs[i] = x.Data
	}
	seeds := []uint64{1, 7, 0xABCDEF, 1 << 50}

	check := func(i int, seed uint64, got serve.PredictResponse, code int) {
		t.Helper()
		if code != http.StatusOK {
			t.Fatalf("input %d seed %d: status %d", i, seed, code)
		}
		want, err := refModel.Predict(context.Background(), inputs[i], seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Output) != len(want.Output) {
			t.Fatalf("input %d seed %d: output length %d != %d", i, seed, len(got.Output), len(want.Output))
		}
		for j := range want.Output {
			if got.Output[j] != want.Output[j] {
				t.Fatalf("input %d seed %d: element %d differs: %v != %v",
					i, seed, j, got.Output[j], want.Output[j])
			}
		}
		if got.ArgMax != want.ArgMax {
			t.Fatalf("input %d seed %d: argmax %d != %d", i, seed, got.ArgMax, want.ArgMax)
		}
	}

	// Serial traffic: batches of one at every stage.
	for i := 0; i < 3; i++ {
		for _, seed := range seeds[:2] {
			got, code := predictJSON(t, front.Client(), front.URL, "LeNet", inputs[i], seed)
			check(i, seed, got, code)
		}
	}

	// Concurrent traffic: stages form multi-request batches and different
	// requests occupy different stages simultaneously; outputs must not
	// move. Responses are verified after the fan-in to keep Fatal on the
	// test goroutine.
	type reply struct {
		i    int
		seed uint64
		resp serve.PredictResponse
		code int
	}
	replies := make(chan reply, nReq*len(seeds))
	var wg sync.WaitGroup
	for i := 0; i < nReq; i++ {
		for _, seed := range seeds {
			wg.Add(1)
			go func(i int, seed uint64) {
				defer wg.Done()
				body, _ := json.Marshal(serve.PredictRequest{Input: inputs[i], Seed: seed})
				resp, err := front.Client().Post(front.URL+"/v1/models/LeNet/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					replies <- reply{i: i, seed: seed, code: -1}
					return
				}
				defer resp.Body.Close()
				r := reply{i: i, seed: seed, code: resp.StatusCode}
				if resp.StatusCode == http.StatusOK {
					_ = json.NewDecoder(resp.Body).Decode(&r.resp)
				}
				replies <- r
			}(i, seed)
		}
	}
	wg.Wait()
	close(replies)
	for r := range replies {
		check(r.i, r.seed, r.resp, r.code)
	}

	// The dispatcher's bookkeeping saw the traffic.
	snap := d.Stats()
	if snap.Requests == 0 || snap.Failures != 0 {
		t.Fatalf("dispatcher stats %+v", snap)
	}
	// /metrics reports the same count, and the last stage in rotation.
	metrics := getBody(t, front, "/metrics", http.StatusOK)
	for _, line := range []string{
		fmt.Sprintf(`dispatcher_requests_total{model="LeNet"} %d`, snap.Requests),
		`dispatcher_stage_healthy_replicas{model="LeNet",stage="1"} 1`,
	} {
		if !strings.Contains(metrics, line+"\n") {
			t.Fatalf("/metrics lacks %q:\n%s", line, metrics)
		}
	}
	// Once draining, the front door's healthz turns 503.
	d.BeginDrain()
	if health := getBody(t, front, "/v1/healthz", http.StatusServiceUnavailable); !strings.Contains(health, `"status":"draining"`) {
		t.Fatalf("healthz while draining: %s", health)
	}
}

// getBody GETs path from ts, requires the status code and returns the body.
func getBody(t *testing.T, ts *httptest.Server, path string, code int) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != code {
		t.Fatalf("GET %s: status %d, want %d: %s", path, resp.StatusCode, code, body)
	}
	return string(body)
}

// TestClusterReplicaDrain stands up stage 0 with two replicas, drains one
// mid-run, and checks that it falls out of rotation within a health
// interval while traffic keeps flowing — bit-identically — through the
// survivor.
func TestClusterReplicaDrain(t *testing.T) {
	dep := e2eDeployment(t)

	ref := serve.New(serve.Config{MaxBatch: 4})
	refModel, err := ref.Deploy(dep)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	L := len(dep.Net.Layers)
	plan := Plan{Ranges: [][2]int{{0, L / 2}, {L / 2, L}}}
	slices, err := SliceAll(dep, plan)
	if err != nil {
		t.Fatal(err)
	}
	s0a, tsA := startStage(t, slices[0], serve.Config{MaxBatch: 4, QueueDepth: 128})
	_, tsB := startStage(t, slices[0], serve.Config{MaxBatch: 4, QueueDepth: 128})
	_, ts1 := startStage(t, slices[1], serve.Config{MaxBatch: 4, QueueDepth: 128})

	d, err := NewDispatcher(DispatcherConfig{
		Model:          "LeNet",
		Stages:         [][]string{{tsA.URL, tsB.URL}, {ts1.URL}},
		HealthInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front := httptest.NewServer(d.Handler())
	defer front.Close()

	inputLen := dep.Net.InC * dep.Net.InH * dep.Net.InW
	rng := tensor.NewRNG(0xD12A)
	input := make([]float32, inputLen)
	x := tensor.FromSlice(input, 1, dep.Net.InC, dep.Net.InH, dep.Net.InW)
	x.FillUniform(rng, -1, 1)

	verify := func(seed uint64) {
		t.Helper()
		got, code := predictJSON(t, front.Client(), front.URL, "LeNet", input, seed)
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, code)
		}
		want, err := refModel.Predict(context.Background(), input, seed)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Output {
			if got.Output[j] != want.Output[j] {
				t.Fatalf("seed %d: element %d differs after drain", seed, j)
			}
		}
	}

	// Warm traffic through both replicas.
	for seed := uint64(1); seed <= 4; seed++ {
		verify(seed)
	}

	// Drain replica A: its healthz flips to 503 and the poller must drop
	// it from rotation.
	s0a.BeginDrain()
	resp, err := front.Client().Get(tsA.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("draining replica healthz: %d %+v", resp.StatusCode, health)
	}
	if health.Role != serve.RoleStage || health.Stage == nil || health.Stage.Index != 0 {
		t.Fatalf("stage health identity: %+v", health)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := d.Stats()
		if snap.Stages[0].Healthy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained replica never left rotation: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Traffic keeps flowing through the survivor, outputs unchanged.
	for seed := uint64(5); seed <= 8; seed++ {
		verify(seed)
	}
	if snap := d.Stats(); snap.Failures != 0 {
		t.Fatalf("drain caused failures: %+v", snap)
	}
}

// TestDispatcherRejectsWrongShapedReply: a replica that answers with a
// well-formed activation frame of another shape than its stage's output
// (a replica cut at other layers) is treated like one whose frame does not
// decode — marked down and failed over, and a 502 once every replica of the
// stage has failed — instead of handing the client a short output.
func TestDispatcherRejectsWrongShapedReply(t *testing.T) {
	dep := e2eDeployment(t)
	slices, err := SliceAll(dep, Plan{Ranges: [][2]int{{0, len(dep.Net.Layers)}}})
	if err != nil {
		t.Fatal(err)
	}
	srv, good := startStage(t, slices[0], serve.Config{})
	honest := serve.NewHandler(srv)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/infer") {
			honest.ServeHTTP(w, r) // discovery and health probes see a proper stage
			return
		}
		_ = serve.EncodeActivation(w, tensor.New(1, 5), 7)
	}))
	defer bad.Close()

	x := tensor.New(1, dep.Net.InC, dep.Net.InH, dep.Net.InW)
	x.FillUniform(tensor.NewRNG(5), -1, 1)
	for _, tc := range []struct {
		name     string
		replicas []string
		status   int
	}{
		{"fails-over", []string{bad.URL, good.URL}, http.StatusOK},
		{"all-wrong", []string{bad.URL}, http.StatusBadGateway},
	} {
		d, err := NewDispatcher(DispatcherConfig{Model: "LeNet", Stages: [][]string{tc.replicas}, HealthInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(d.Handler())
		got, code := predictJSON(t, front.Client(), front.URL, "LeNet", x.Data, 3)
		snap := d.Stats()
		front.Close()
		d.Close()
		if code != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.status)
		}
		if code == http.StatusOK && len(got.Output) != dep.Net.Classes {
			t.Fatalf("%s: %d outputs, want %d", tc.name, len(got.Output), dep.Net.Classes)
		}
		if healthy := snap.Stages[0].Healthy; healthy != len(tc.replicas)-1 {
			t.Fatalf("%s: %d of %d replicas healthy, want the wrong-shaped one marked down", tc.name, healthy, len(tc.replicas))
		}
	}
}

// TestDispatcherCancelKeepsReplicasInRotation: a caller that goes away
// while a replica is computing its hop fails that Predict with the
// context's error and takes no replica out of rotation. Failing over on the
// dead context would fail every other replica of the stage at once and mark
// the whole stage down until the next health poll.
func TestDispatcherCancelKeepsReplicasInRotation(t *testing.T) {
	dep := e2eDeployment(t)
	slices, err := SliceAll(dep, Plan{Ranges: [][2]int{{0, len(dep.Net.Layers)}}})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := startStage(t, slices[0], serve.Config{})
	honest := serve.NewHandler(srv)
	// One slot per replica, so a held hop never waits on the test.
	computing, release := make(chan struct{}, 2), make(chan struct{})
	gated := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/infer") {
				honest.ServeHTTP(w, r)
				return
			}
			computing <- struct{}{}
			select { // held until the caller goes away
			case <-r.Context().Done():
			case <-release:
			}
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	replicas := []string{gated(), gated()}
	t.Cleanup(func() { close(release) })
	d, err := NewDispatcher(DispatcherConfig{Model: "LeNet", Stages: [][]string{replicas}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	x := tensor.New(1, dep.Net.InC, dep.Net.InH, dep.Net.InW)
	x.FillUniform(tensor.NewRNG(6), -1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.Predict(ctx, x.Data, 1, time.Time{})
		done <- err
	}()
	<-computing
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Predict returned %v, want context.Canceled", err)
	}
	if snap := d.Stats(); snap.Stages[0].Healthy != len(replicas) {
		t.Fatalf("%d of %d replicas healthy after a caller cancelled, want all", snap.Stages[0].Healthy, len(replicas))
	}
}

// TestDispatcherValidation pins the construction errors a misassembled
// cluster must surface instead of serving wrong answers.
func TestDispatcherValidation(t *testing.T) {
	dep := e2eDeployment(t)
	L := len(dep.Net.Layers)
	slices, err := SliceAll(dep, Plan{Ranges: [][2]int{{0, L / 2}, {L / 2, L}}})
	if err != nil {
		t.Fatal(err)
	}
	_, ts0 := startStage(t, slices[0], serve.Config{})
	_, ts1 := startStage(t, slices[1], serve.Config{})

	if _, err := NewDispatcher(DispatcherConfig{Model: "LeNet"}); err == nil {
		t.Fatal("no stages should fail")
	}
	if _, err := NewDispatcher(DispatcherConfig{Model: "", Stages: [][]string{{ts0.URL}}}); err == nil {
		t.Fatal("no model name should fail")
	}
	// Stages wired in the wrong order must be rejected at discovery.
	if _, err := NewDispatcher(DispatcherConfig{
		Model:          "LeNet",
		Stages:         [][]string{{ts1.URL}, {ts0.URL}},
		HealthInterval: 50 * time.Millisecond,
	}); err == nil {
		t.Fatal("swapped stages should fail discovery")
	}
	// A whole-model server is not a stage.
	whole := serve.New(serve.Config{})
	if _, err := whole.Deploy(dep); err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	tsW := httptest.NewServer(serve.NewHandler(whole))
	defer tsW.Close()
	if _, err := NewDispatcher(DispatcherConfig{
		Model:  "LeNet",
		Stages: [][]string{{tsW.URL}},
	}); err == nil {
		t.Fatal("whole-model replica should fail discovery")
	}
}
