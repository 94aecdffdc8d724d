package bench

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
)

// RunSeconds is how long one run measures; BENCHMARK.json carries it to
// the driver, which passes it back as --seconds.
const RunSeconds = 12

// WorkloadDef names a workload and says why it exists.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads are the four traffic mixes, in the order the suite runs them.
var Workloads = []WorkloadDef{
	{"vgg_batched", "Capacity: 32 in-process callers keep VGG-16 batches full, so fused dnn/compute kernels, eden hooks and the serve scheduler do the work; no HTTP, no cluster."},
	{"lenet_http", "Latency: 2 keep-alive HTTP clients on LeNet keep batches at 1, so JSON, HTTP and scheduler hand-off dominate; a kernel or batching change predicts no move here."},
	{"lenet_cluster_k2", "Same artifact and clients as lenet_http through the dispatcher and two stage servers, so the difference is the cluster layer: wire format and second hop."},
	{"lenet_pipeline", "The paper's Fig. 4 flow itself (eden.Deploy: profile, characterize, boost, map, calibrate): training, backward and fan-out paths that serving never runs."},
}

// MetricDef is one metric of the schema. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// EndToEnd are the gated metrics. Every workload reports all of them; what
// each means on each workload, and the A/A evidence behind the bounds, is in
// cmd/bench/README.md.
var EndToEnd = []MetricDef{
	{"qps", "req/s", higher, 0.25},
	{"p50_ms", "ms", lower, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// vggLayerSlots are the VGG-16 layers timed one by one; the rest (ReLU,
// pooling, flatten) are summed into "other".
var vggLayerSlots = []string{"conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "fc1", "fc2", "fc3", "other"}

// PerLayer are the traced run's metrics. A layer a workload does not
// traverse, or a model it does not load, reports 0: it spent no time there.
var PerLayer = buildPerLayer()

func buildPerLayer() []MetricDef {
	defs := []MetricDef{
		// The load generator itself; subtract from everything below.
		{Name: "client.qps", Unit: "req/s", Better: higher},
		{Name: "client.p50_ms", Unit: "ms", Better: lower},
		{Name: "client.p90_ms", Unit: "ms", Better: lower},
		{Name: "client.p99_ms", Unit: "ms", Better: lower},
		{Name: "client.n", Unit: "count", Better: higher},
		{Name: "client.encode_us", Unit: "us", Better: lower},
		{Name: "client.decode_us", Unit: "us", Better: lower},

		{Name: "serve.mean_batch", Unit: "req", Better: higher},
		{Name: "serve.batches", Unit: "count", Better: lower},
		{Name: "serve.busy_frac", Unit: "ratio", Better: higher},
		{Name: "serve.shed", Unit: "count", Better: lower},
		{Name: "serve.expired", Unit: "count", Better: lower},
		{Name: "serve.queue_compute_p50_ms", Unit: "ms", Better: lower},
		{Name: "serve.submit_overhead_p50_us", Unit: "us", Better: lower},
		{Name: "serve.sched_efficiency", Unit: "ratio", Better: higher},
		{Name: "serve.wire_encode_mb_s", Unit: "MB/s", Better: higher},
		{Name: "serve.wire_decode_mb_s", Unit: "MB/s", Better: higher},

		{Name: "servehttp.overhead_p50_ms", Unit: "ms", Better: lower},
		{Name: "servehttp.handler_p50_ms", Unit: "ms", Better: lower},
		{Name: "servehttp.transport_p50_ms", Unit: "ms", Better: lower},
		{Name: "servehttp.req_bytes", Unit: "bytes", Better: lower},
		{Name: "servehttp.resp_bytes", Unit: "bytes", Better: lower},

		{Name: "cluster.hop_overhead_p50_ms", Unit: "ms", Better: lower},
		{Name: "cluster.dispatcher_p50_ms", Unit: "ms", Better: lower},
		{Name: "cluster.stage0_p50_ms", Unit: "ms", Better: lower},
		{Name: "cluster.stage1_p50_ms", Unit: "ms", Better: lower},
		{Name: "cluster.forward_overhead_ms", Unit: "ms", Better: lower},
		{Name: "cluster.failures", Unit: "count", Better: lower},
		{Name: "cluster.plan_ms", Unit: "ms", Better: lower},
		{Name: "cluster.cut_layer", Unit: "index", Better: lower},
		{Name: "cluster.boundary_bytes", Unit: "bytes", Better: lower},

		{Name: "dnn.vgg_forward_b1_ms", Unit: "ms", Better: lower},
		{Name: "dnn.vgg_fused_b16_sps", Unit: "1/s", Better: higher},
		{Name: "dnn.vgg_fused_b16_clean_sps", Unit: "1/s", Better: higher},
		{Name: "dnn.vgg_fanout_b16_sps", Unit: "1/s", Better: higher},
	}
	for _, slot := range vggLayerSlots {
		defs = append(defs, MetricDef{Name: "dnn.vgg_layer_b16_us." + slot, Unit: "us", Better: lower})
	}
	return append(defs, []MetricDef{
		{Name: "dnn.lenet_forward_b1_us", Unit: "us", Better: lower},
		{Name: "dnn.lenet_train_epoch_s", Unit: "s", Better: lower},
		{Name: "dnn.allocs_per_fused_b16", Unit: "count", Better: lower},
		{Name: "dnn.alloc_kb_per_fused_b16", Unit: "KB", Better: lower},

		{Name: "compute.gemm_conv2d_us", Unit: "us", Better: lower},
		{Name: "compute.gemm_conv2d_gmac_s", Unit: "GMAC/s", Better: higher},
		{Name: "compute.qgemm_conv2d_us", Unit: "us", Better: lower},
		{Name: "compute.qgemm_conv2d_gmac_s", Unit: "GMAC/s", Better: higher},
		{Name: "compute.gemm_matmul_transb_us", Unit: "us", Better: lower},
		{Name: "compute.qgemm_matmul_transb_us", Unit: "us", Better: lower},
		{Name: "compute.gemm_conv2d_backward_ms", Unit: "ms", Better: lower},
		// Computed from the tensor sizes of the conv2d probe, not measured.
		{Name: "compute.conv2d_bytes_moved", Unit: "bytes", Better: lower},

		{Name: "quant.quantize_mvals_s", Unit: "Mval/s", Better: higher},
		{Name: "quant.dequantize_mvals_s", Unit: "Mval/s", Better: higher},
		{Name: "quant.pack_mb_s", Unit: "MB/s", Better: higher},

		{Name: "eden.ifm_hook_us_per_sample_vgg", Unit: "us", Better: lower},
		{Name: "eden.ifm_hook_share_vgg", Unit: "ratio", Better: lower},
		{Name: "eden.corrupt_weights_ms_vgg", Unit: "ms", Better: lower},
		{Name: "eden.clone_get_put_ns", Unit: "ns", Better: lower},
		{Name: "eden.profile_fit_s", Unit: "s", Better: lower},
		{Name: "eden.coarse_char_s", Unit: "s", Better: lower},
		{Name: "eden.retrain_s", Unit: "s", Better: lower},
		{Name: "eden.fine_char_s", Unit: "s", Better: lower},
		{Name: "eden.map_partition_ms", Unit: "ms", Better: lower},
		{Name: "eden.calibrate_ms", Unit: "ms", Better: lower},
		{Name: "eden.pipeline_s", Unit: "s", Better: lower},
		{Name: "eden.save_ms", Unit: "ms", Better: lower},
		{Name: "eden.load_ms", Unit: "ms", Better: lower},
		// Exact-repeat counts: identical between any two commits that claim
		// to change only speed (for equal --seed where a probe is involved).
		{Name: "eden.artifact_bytes", Unit: "bytes", Better: lower},
		{Name: "eden.artifact_crc32", Unit: "crc32", Better: lower},
		{Name: "eden.tolerable_ber", Unit: "ber", Better: higher},
		{Name: "eden.serving_ber", Unit: "ber", Better: higher},
		{Name: "eden.delta_vdd", Unit: "V", Better: lower},
		{Name: "eden.delta_trcd_ns", Unit: "ns", Better: lower},
		{Name: "eden.probe_crc32_vgg", Unit: "crc32", Better: lower},
		{Name: "eden.probe_crc32_lenet", Unit: "crc32", Better: lower},

		{Name: "process.allocs_per_op", Unit: "count", Better: lower},
		{Name: "process.alloc_kb_per_op", Unit: "KB", Better: lower},
		{Name: "process.gc_cycles", Unit: "count", Better: lower},
		{Name: "process.gc_pause_ms", Unit: "ms", Better: lower},
		{Name: "process.peak_rss_mb", Unit: "MB", Better: lower},
		{Name: "process.num_cpu", Unit: "count", Better: higher},
		{Name: "process.gomaxprocs", Unit: "count", Better: higher},
		{Name: "process.workers", Unit: "count", Better: higher},

		{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
		{Name: "trace.request_coverage", Unit: "ratio", Better: higher},
	}...)
}

// ExactRepeat names the metrics that are counts, not timings: two runs of
// commits that claim equal behaviour must agree on them to the last digit.
var ExactRepeat = map[string]bool{
	"servehttp.req_bytes": true, "servehttp.resp_bytes": true,
	"compute.conv2d_bytes_moved": true, "cluster.failures": true, "serve.shed": true, "serve.expired": true,
	"eden.artifact_bytes": true, "eden.artifact_crc32": true, "eden.tolerable_ber": true,
	"eden.serving_ber": true, "eden.delta_vdd": true, "eden.delta_trcd_ns": true,
	"eden.probe_crc32_vgg": true, "eden.probe_crc32_lenet": true,
}

// Value is one reported measurement.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to measurements.
type Metrics map[string]Value

// newMetrics returns every metric of defs at 0, so a run always reports
// the full schema.
func newMetrics(defs []MetricDef) Metrics {
	m := make(Metrics, len(defs))
	for _, d := range defs {
		m[d.Name] = Value{Unit: d.Unit}
	}
	return m
}

// set stores a measurement; naming a metric outside the schema is a bug in
// the benchmark and panics.
func (m Metrics) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not in the schema")
	}
	cur.Value = v
	m[name] = cur
}

// names returns the metric names in ascending order.
func (m Metrics) names() []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// CheckSchema verifies the schema against the limits the benchmark
// contract sets: name and unit alphabets, counts, directions, bounds.
func CheckSchema() error {
	seen := map[string]bool{}
	check := func(kind string, defs []MetricDef, maxN int, bounded bool) error {
		if len(defs) < 1 || len(defs) > maxN {
			return fmt.Errorf("%d %s metrics, want 1..%d", len(defs), kind, maxN)
		}
		for _, d := range defs {
			switch {
			case !nameRE.MatchString(d.Name):
				return fmt.Errorf("%s metric name %q is malformed", kind, d.Name)
			case seen[d.Name]:
				return fmt.Errorf("metric name %q is used twice", d.Name)
			case !unitRE.MatchString(d.Unit):
				return fmt.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
			case d.Better != lower && d.Better != higher:
				return fmt.Errorf("metric %s: direction %q", d.Name, d.Better)
			case bounded && (d.Bound <= 0 || d.Bound > 0.25):
				return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			case !bounded && d.Bound != 0:
				return fmt.Errorf("metric %s: per-layer metrics carry no bound", d.Name)
			}
			seen[d.Name] = true
		}
		return nil
	}
	if err := check("end-to-end", EndToEnd, 16, true); err != nil {
		return err
	}
	if err := check("per-layer", PerLayer, 128, false); err != nil {
		return err
	}
	if len(Workloads) < 2 || len(Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2..8", len(Workloads))
	}
	for _, w := range Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			return fmt.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	return nil
}

// BenchmarkJSON renders BENCHMARK.json from the schema, so the file at the
// repository root is generated (cmd/bench -schema), never hand-edited, and
// a test holds the two together.
func BenchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []WorkloadDef `json:"workloads"`
		EndToEnd   []MetricDef   `json:"end_to_end"`
		PerLayer   []MetricDef   `json:"per_layer"` // zero bounds are omitted
	}{
		Command:    []string{"bash", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench", "internal/bench"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
