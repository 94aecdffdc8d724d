package cluster

import (
	"reflect"
	"testing"

	"repro/internal/dnn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// bruteForce enumerates every K-stage cut and returns the minimal
// bottleneck cost — the oracle the DP must match.
func bruteForce(p Profile, cfg PartitionConfig) float64 {
	L := len(p.CostNs)
	xfer := func(b int) float64 {
		if b == 0 || b == L {
			return 0
		}
		return hopLatencyNs + float64(p.BoundaryBytes[b])/bytesPerNs
	}
	// Same prefix-sum evaluation as the DP, so optimal costs compare
	// exactly instead of modulo float summation order.
	prefix := make([]float64, L+1)
	for i, c := range p.CostNs {
		prefix[i+1] = prefix[i] + c
	}
	cost := func(j, i int) float64 {
		return xfer(j) + prefix[i] - prefix[j] + xfer(i)
	}
	best := 1e30
	var rec func(lo, stagesLeft int, worst float64)
	rec = func(lo, stagesLeft int, worst float64) {
		if stagesLeft == 1 {
			c := max(worst, cost(lo, L))
			if c < best {
				best = c
			}
			return
		}
		for hi := lo + 1; hi <= L-(stagesLeft-1); hi++ {
			rec(hi, stagesLeft-1, max(worst, cost(lo, hi)))
		}
	}
	rec(0, cfg.Stages, 0)
	return best
}

// TestPartitionMatchesBruteForce checks the DP against exhaustive search
// over a spread of layer counts, stage counts and cost shapes.
func TestPartitionMatchesBruteForce(t *testing.T) {
	rng := tensor.NewRNG(0xDEAD)
	randomProfile := func(L int) Profile {
		p := Profile{CostNs: make([]float64, L), BoundaryBytes: make([]int, L+1)}
		for i := range p.CostNs {
			p.CostNs[i] = 1000 + 99_000*rng.Float64()
		}
		for i := range p.BoundaryBytes {
			p.BoundaryBytes[i] = int(100_000 * rng.Float64())
		}
		return p
	}
	for _, L := range []int{1, 2, 3, 5, 8, 11} {
		for K := 1; K <= L && K <= 5; K++ {
			for trial := 0; trial < 4; trial++ {
				p := randomProfile(L)
				cfg := PartitionConfig{Stages: K}
				plan, err := Partition(p, cfg)
				if err != nil {
					t.Fatalf("L=%d K=%d: %v", L, K, err)
				}
				if want := bruteForce(p, cfg); plan.BottleneckNs != want {
					t.Fatalf("L=%d K=%d: DP bottleneck %v, brute force %v", L, K, plan.BottleneckNs, want)
				}
				// The plan must be a contiguous cover with the reported
				// bottleneck actually realized by its worst stage.
				if len(plan.Ranges) != K {
					t.Fatalf("L=%d K=%d: %d ranges", L, K, len(plan.Ranges))
				}
				worst := 0.0
				at := 0
				for k, r := range plan.Ranges {
					if r[0] != at || r[1] <= r[0] {
						t.Fatalf("L=%d K=%d: ranges %v not contiguous", L, K, plan.Ranges)
					}
					at = r[1]
					if plan.StageCostNs[k] > worst {
						worst = plan.StageCostNs[k]
					}
				}
				if at != L {
					t.Fatalf("L=%d K=%d: ranges %v do not cover %d layers", L, K, plan.Ranges, L)
				}
				if worst != plan.BottleneckNs {
					t.Fatalf("L=%d K=%d: worst stage %v != bottleneck %v", L, K, worst, plan.BottleneckNs)
				}
			}
		}
	}
}

// TestPartitionDeterministicAndTransferAware pins the deterministic
// tie-break and the transfer term's influence on cut placement.
func TestPartitionDeterministicAndTransferAware(t *testing.T) {
	// Uniform compute, one cheap boundary: the cut must land on it (a
	// bottleneck of 50 364 ns there, against 1 098 676 ns for a cut at 1).
	p := Profile{
		CostNs:        []float64{100, 100, 100, 100},
		BoundaryBytes: []int{0, 1 << 20, 1 << 20, 64, 0},
	}
	plan, err := Partition(p, PartitionConfig{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ranges[0] != [2]int{0, 3} || plan.Ranges[1] != [2]int{3, 4} {
		t.Fatalf("cut avoided the cheap boundary: %v", plan.Ranges)
	}
	// Same inputs, same plan — byte for byte.
	again, err := Partition(p, PartitionConfig{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, again) {
		t.Fatalf("partition not deterministic: %+v vs %+v", plan, again)
	}
	// With free transfers and a tie, the earliest cut wins.
	flat := Profile{CostNs: []float64{1, 1}, BoundaryBytes: []int{0, 0, 0}}
	tie, err := Partition(flat, PartitionConfig{Stages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tie.Ranges[0] != [2]int{0, 2} {
		t.Fatalf("single stage must span everything: %v", tie.Ranges)
	}
}

// TestPartitionErrors pins the input validation.
func TestPartitionErrors(t *testing.T) {
	good := Profile{CostNs: []float64{1, 1}, BoundaryBytes: []int{0, 4, 0}}
	if _, err := Partition(Profile{}, PartitionConfig{Stages: 1}); err == nil {
		t.Fatal("empty profile should fail")
	}
	if _, err := Partition(good, PartitionConfig{Stages: 0}); err == nil {
		t.Fatal("0 stages should fail")
	}
	if _, err := Partition(good, PartitionConfig{Stages: 3}); err == nil {
		t.Fatal("more stages than layers should fail")
	}
	if _, err := Partition(Profile{CostNs: []float64{1}, BoundaryBytes: []int{0}}, PartitionConfig{Stages: 1}); err == nil {
		t.Fatal("mis-sized boundaries should fail")
	}
}

// TestProfileNetworkShape checks the probe's output geometry against the
// network it measures.
func TestProfileNetworkShape(t *testing.T) {
	net, err := dnn.BuildModel("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	p := ProfileNetwork(net, quant.Int8, 1)
	if len(p.CostNs) != len(net.Layers) || len(p.BoundaryBytes) != len(net.Layers)+1 {
		t.Fatalf("profile geometry %d/%d for %d layers", len(p.CostNs), len(p.BoundaryBytes), len(net.Layers))
	}
	shapes := net.BoundaryShapes()
	for i, b := range p.BoundaryBytes {
		if want := shapes[i].Size() * quant.Int8.Bits() / 8; b != want {
			t.Fatalf("boundary %d: %d bytes, want %d", i, b, want)
		}
	}
	for i, c := range p.CostNs {
		if c < 0 {
			t.Fatalf("layer %d: negative cost %v", i, c)
		}
	}
}
