package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smoke runs one workload small: 0.8 s measured, so 200 ms slices, a 100 ms
// warm-up and 20 ms probes. The model is LeNet throughout, so this trains in
// seconds; VGG-16 is never trained in tests.
func smoke(t *testing.T, workload string, trace bool) *Result {
	t.Helper()
	res, err := Run(Options{Workload: workload, Seed: 5, Seconds: 0.8, Trace: trace, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, note := range res.Notes {
		t.Log(note)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestSmokeLenetHTTP(t *testing.T) {
	res := smoke(t, "lenet_http", false)
	if len(res.Metrics) != len(EndToEnd) {
		t.Fatalf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(EndToEnd))
	}
	for _, d := range EndToEnd {
		if v := res.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
		}
	}

	// The result object is the last line of output, with exactly the
	// contract's keys.
	var out bytes.Buffer
	if err := WriteResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[key]; !ok {
			t.Errorf("result object lacks %q", key)
		}
	}
	if len(obj) != 4 {
		t.Errorf("result object has %d keys, want exactly 4", len(obj))
	}
}

func TestSmokeLenetPipeline(t *testing.T) {
	res := smoke(t, "lenet_pipeline", false)
	// One operation is one whole pipeline: p50_ms is its duration and qps
	// its completions over the window, artifact checks included.
	if ms, qps := res.Metrics["p50_ms"].Value, res.Metrics["qps"].Value; ms < 100 || qps*ms > 1000 || qps*ms < 800 {
		t.Errorf("p50_ms = %v, qps = %v: want one pipeline per operation", ms, qps)
	}
}

// The traced cluster run walks nearly every per-layer path: client spans,
// scheduler and dispatcher counters, the single-process comparison, the
// LeNet and kernel probes and the piecewise pipeline.
func TestSmokeLenetClusterTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("trains extra epochs and runs the pipeline piecewise; the untraced smoke tests cover -short")
	}
	res := smoke(t, "lenet_cluster_k2", true)
	if len(res.Metrics) != len(PerLayer) {
		t.Fatalf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(PerLayer))
	}
	for _, name := range []string{
		"client.qps", "client.p50_ms", "serve.mean_batch", "servehttp.req_bytes", "servehttp.handler_p50_ms",
		"cluster.dispatcher_p50_ms", "cluster.boundary_bytes", "serve.wire_encode_mb_s",
		"dnn.lenet_forward_b1_us", "compute.gemm_conv2d_us", "quant.quantize_mvals_s",
		"eden.retrain_s", "eden.artifact_crc32", "eden.probe_crc32_lenet", "process.num_cpu",
	} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want it measured", name, res.Metrics[name].Value)
		}
	}
	for _, name := range []string{"dnn.vgg_fused_b16_sps", "eden.probe_crc32_vgg", "cluster.failures"} {
		if res.Metrics[name].Value != 0 {
			t.Errorf("%s = %v on a LeNet workload, want 0", name, res.Metrics[name].Value)
		}
	}
	m := res.Metrics
	sum := m["cluster.stage0_p50_ms"].Value + m["cluster.stage1_p50_ms"].Value + m["cluster.forward_overhead_ms"].Value
	if d := sum - m["cluster.dispatcher_p50_ms"].Value; d > 1e-9 || d < -1e-9 {
		t.Errorf("stage p50s + forward overhead = %v, dispatcher p50 = %v", sum, m["cluster.dispatcher_p50_ms"].Value)
	}
	if cov := m["trace.request_coverage"].Value; cov < 0.95 {
		t.Errorf("children of client.request cover %.3f of it, want >= 0.95", cov)
	}
	buf, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []Span }
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range doc.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"client.request", "servehttp.roundtrip", "serve.queue_compute", "client.decode", "eden.deploy", "eden.fine_char"} {
		if !names[want] {
			t.Errorf("span file has no %s span", want)
		}
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{Workload: "vgg_open", Seconds: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(Options{Workload: "lenet_http"}); err == nil {
		t.Error("zero seconds accepted")
	}
}
