package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestSchemaWithinContractLimits(t *testing.T) {
	if err := CheckSchema(); err != nil {
		t.Fatal(err)
	}
	if len(EndToEnd) > 16 || len(PerLayer) > 128 {
		t.Fatalf("%d end-to-end, %d per-layer metrics", len(EndToEnd), len(PerLayer))
	}
	setup := false
	for _, d := range EndToEnd {
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
			for _, other := range EndToEnd {
				if other.Bound > d.Bound {
					t.Errorf("%s has a larger bound than setup_s", other.Name)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for name := range ExactRepeat {
		if _, ok := newMetrics(PerLayer)[name]; !ok {
			t.Errorf("exact-repeat metric %s is not in the schema", name)
		}
	}
}

func TestMetricsSetRejectsUnknownNames(t *testing.T) {
	m := newMetrics(EndToEnd)
	m.set("qps", 3)
	if m["qps"].Value != 3 || m["qps"].Unit != "req/s" {
		t.Errorf("qps = %+v", m["qps"])
	}
	defer func() {
		if recover() == nil {
			t.Error("setting a metric outside the schema did not panic")
		}
	}()
	m.set("qsp", 1)
}

// BENCHMARK.json at the repository root is generated from the schema
// (cmd/bench/run.sh -schema > BENCHMARK.json); this holds the two together.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	want, err := BenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Fatalf("BENCHMARK.json would be %d bytes, over 64 KiB", len(want))
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("generated file lacks %q", key)
		}
	}
	if len(doc) != 6 {
		t.Errorf("generated file has %d keys, want exactly 6", len(doc))
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the schema; regenerate it with: bash cmd/bench/run.sh -schema > BENCHMARK.json")
	}
}
