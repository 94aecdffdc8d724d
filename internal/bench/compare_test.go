package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	qps := MetricDef{Name: "qps", Better: higher, Bound: 0.15}
	p50 := MetricDef{Name: "p50_ms", Better: lower, Bound: 0.10}
	for _, c := range []struct {
		name string
		d    MetricDef
		a, b []float64
		want Verdict
	}{
		{"same", p50, []float64{1.00, 1.02, 1.01}, []float64{1.01, 1.00, 1.03}, OK},
		{"slower inside the bound", p50, []float64{1.00, 1.02, 1.01}, []float64{1.08, 1.07, 1.09}, OK},
		{"slower beyond the bound", p50, []float64{1.00, 1.02, 1.01}, []float64{1.15, 1.14, 1.16}, Regression},
		{"every run faster", p50, []float64{1.00, 1.02, 1.01}, []float64{0.90, 0.91, 0.89}, Better},
		{"every run faster despite noise", p50, []float64{1.00, 1.30, 1.10}, []float64{0.90, 0.95, 0.70}, Better},
		{"A/A spread wider than the bound", p50, []float64{1.00, 1.20, 1.05}, []float64{1.02, 1.04, 1.03}, Unresolved},
		{"higher is better: lower qps regresses", qps, []float64{600, 610, 605}, []float64{480, 490, 485}, Regression},
		{"higher is better: more qps", qps, []float64{600, 610, 605}, []float64{700, 690, 710}, Better},
	} {
		if got, _, _ := Judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
	if _, worse, _ := Judge(qps, []float64{600}, []float64{540}); worse < 0.0999 || worse > 0.1001 {
		t.Errorf("worse = %v, want 0.10", worse)
	}
}

func runOf(workload string, seed uint64, trace bool, vals map[string]float64) *Result {
	defs := EndToEnd
	if trace {
		defs = PerLayer
	}
	m := newMetrics(defs)
	for k, v := range vals {
		m.set(k, v)
	}
	return &Result{Workload: workload, Seed: seed, Trace: trace, Correct: true, Attempted: 1, Metrics: m}
}

func e2e(p50 float64) map[string]float64 {
	return map[string]float64{"qps": 1400, "p50_ms": p50, "cpu_ms_per_op": 1.1, "setup_s": 6}
}

func TestCompareFlagsRegression(t *testing.T) {
	a := RunSet{Runs: []*Result{
		runOf("lenet_http", 1, false, e2e(1.30)), runOf("lenet_http", 2, false, e2e(1.31)), runOf("lenet_http", 3, false, e2e(1.32)),
	}}
	var out bytes.Buffer
	if !Compare(&out, a, a) {
		t.Errorf("a set does not pass against itself:\n%s", out.String())
	}
	b := RunSet{Runs: []*Result{
		runOf("lenet_http", 1, false, e2e(1.70)), runOf("lenet_http", 2, false, e2e(1.71)), runOf("lenet_http", 3, false, e2e(1.72)),
	}}
	out.Reset()
	if Compare(&out, a, b) || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 30%% slower p50 passed:\n%s", out.String())
	}
}

// A record written under another schema lacks a metric: the pair is
// unresolved, not a crash and not a regression.
func TestCompareToleratesMissingMetric(t *testing.T) {
	a := RunSet{Runs: []*Result{runOf("lenet_http", 1, false, e2e(1.30)), runOf("lenet_http", 2, false, e2e(1.31))}}
	old := runOf("lenet_http", 1, false, e2e(1.30))
	delete(old.Metrics, "cpu_ms_per_op")
	b := RunSet{Runs: []*Result{old}}
	var out bytes.Buffer
	if !Compare(&out, a, b) || !Compare(&out, b, a) {
		t.Errorf("a missing metric failed the comparison:\n%s", out.String())
	}
	if !strings.Contains(out.String(), string(Unresolved)) {
		t.Errorf("the pair without values is not reported as unresolved:\n%s", out.String())
	}
	if v, _, _ := Judge(EndToEnd[0], nil, []float64{1}); v != Unresolved {
		t.Errorf("Judge with an empty side = %s, want %s", v, Unresolved)
	}
}

func TestCompareFlagsCountMismatch(t *testing.T) {
	a := RunSet{Trace: true, Runs: []*Result{
		runOf("lenet_http", 1, true, map[string]float64{"eden.artifact_crc32": 77, "client.p50_ms": 1.3}),
	}}
	var out bytes.Buffer
	if !Compare(&out, a, a) {
		t.Errorf("a traced set does not pass against itself:\n%s", out.String())
	}
	b := RunSet{Trace: true, Runs: []*Result{
		runOf("lenet_http", 1, true, map[string]float64{"eden.artifact_crc32": 78, "client.p50_ms": 1.5}),
	}}
	out.Reset()
	if Compare(&out, a, b) || !strings.Contains(out.String(), "MISMATCH lenet_http seed 1: eden.artifact_crc32") {
		t.Errorf("a changed artifact CRC passed:\n%s", out.String())
	}
}

func TestLoadRunSetRejectsMixedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.json")
	mixed := `{"trace": false, "runs": [{"workload": "lenet_http", "trace": true, "metrics": {}}]}`
	if err := os.WriteFile(path, []byte(mixed), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunSet(path); err == nil {
		t.Error("a record mixing traced and untraced runs was accepted")
	}
}
