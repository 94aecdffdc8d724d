// Package cluster serves one model across multiple processes as a pipeline
// of layer-range stages. Three pieces: a partitioner that splits a network
// into K contiguous stages balancing per-stage compute cost against
// activation-transfer bytes (a DP over layer boundaries minimizing the
// bottleneck stage); stage servers — serve.Server instances registered
// through DeployStage, each corrupting only its own layer range; and a
// Dispatcher, a front-end speaking the standard /v1/models/{name}/predict
// JSON API while streaming boundary activations stage-to-stage over the
// binary /infer wire, load-balancing stage replicas and using /v1/healthz
// for membership.
//
// The determinism contract extends across the wire: every stage slice
// carries the full-model DRAM layout, activations travel as exact float32
// bit patterns, and the request seed rides along unchanged, so a cluster's
// output is bit-identical to single-process serving of the same deployment
// for the same (input, seed) — regardless of how the pipeline was cut.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/dnn"
	"repro/internal/eden"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Profile is the per-layer cost model the partitioner optimizes over:
// compute cost per layer and activation bytes per boundary.
type Profile struct {
	// CostNs[i] is the measured forward cost of layer i in nanoseconds.
	CostNs []float64
	// BoundaryBytes[i] is the activation footprint crossing boundary i
	// (before layer i; index L is the final output) at the deployment's
	// precision — what a cut at i would put on the wire.
	BoundaryBytes []int
}

// ProfileNetwork measures a per-layer cost profile with a one-shot timing
// probe: a deterministic input is pushed layer by layer, each layer timed
// over repeats passes (minimum taken, the usual noise-robust choice), and
// boundary footprints computed from the activation shapes at prec. The
// probe's timings vary run to run — that is fine, because partition choice
// affects only throughput, never outputs: stage slices corrupt
// bit-identically wherever the cuts land.
func ProfileNetwork(net *dnn.Network, prec quant.Precision, repeats int) Profile {
	if repeats < 1 {
		repeats = 3
	}
	L := len(net.Layers)
	p := Profile{
		CostNs:        make([]float64, L),
		BoundaryBytes: make([]int, 0, L+1),
	}
	rng := tensor.NewRNG(0x9A07)
	x := tensor.New(1, net.InC, net.InH, net.InW)
	x.FillUniform(rng, -1, 1)
	bytesOf := func(t *tensor.Tensor) int { return t.Size() * prec.Bits() / 8 }
	for r := 0; r < repeats; r++ {
		cur := x
		bb := make([]int, 0, L+1)
		for i, l := range net.Layers {
			bb = append(bb, bytesOf(cur))
			start := time.Now()
			cur = l.Forward(cur, false)
			ns := float64(time.Since(start).Nanoseconds())
			if r == 0 || ns < p.CostNs[i] {
				p.CostNs[i] = ns
			}
		}
		bb = append(bb, bytesOf(cur))
		p.BoundaryBytes = bb
	}
	return p
}

// PartitionConfig parameterizes the cut optimization.
type PartitionConfig struct {
	// Stages is the number of pipeline stages K (required, 1 ≤ K ≤ layers).
	Stages int
}

// The modelled interconnect that converts boundary bytes into transfer
// cost: bytesPerNs is its bandwidth (~1 GB/s, a conservative loopback/LAN
// figure), and hopLatencyNs the fixed per-hop cost added to every cut
// (50µs, a round-trip HTTP dispatch on a LAN) — what stops the DP from
// cutting at every cheap boundary.
const (
	bytesPerNs   = 1.0
	hopLatencyNs = 50_000
)

// Plan is a pipeline partition: K contiguous layer ranges with the modelled
// cost of each stage.
type Plan struct {
	// Ranges[k] is the half-open layer range [lo, hi) of stage k; ranges
	// are contiguous and cover every layer.
	Ranges [][2]int
	// StageCostNs[k] is stage k's modelled cost: its layers' compute plus
	// the transfer of its input and output boundary activations.
	StageCostNs []float64
	// BottleneckNs is the maximum stage cost — the pipeline's modelled
	// steady-state interval between completions, which the DP minimized.
	BottleneckNs float64
}

// Partition finds the K-stage cut of the profiled network minimizing the
// bottleneck stage cost — the DP over layer boundaries:
//
//	dp[k][i] = min over j of max(dp[k-1][j], cost(j, i))
//
// where cost(j, i) charges stage [j, i) its layers' compute plus a transfer
// term (hop latency + bytes/bandwidth) for each internal boundary it
// touches. A pipeline's throughput is set by its slowest stage, so the
// bottleneck — not the sum — is the right objective. Ties break toward the
// smallest j (the earliest cut), making the plan deterministic for a given
// profile.
func Partition(p Profile, cfg PartitionConfig) (Plan, error) {
	L := len(p.CostNs)
	K := cfg.Stages
	if L == 0 {
		return Plan{}, fmt.Errorf("cluster: empty profile")
	}
	if len(p.BoundaryBytes) != L+1 {
		return Plan{}, fmt.Errorf("cluster: profile has %d boundaries for %d layers", len(p.BoundaryBytes), L)
	}
	if K < 1 || K > L {
		return Plan{}, fmt.Errorf("cluster: %d stages out of range for %d layers", K, L)
	}

	// xfer(b) is the cost charged to BOTH sides of a cut at boundary b:
	// the sender serializes and the receiver deserializes the same bytes,
	// and each pays the hop. The model's edges (b=0, b=L) are free — those
	// activations exist regardless of partitioning.
	xfer := func(b int) float64 {
		if b == 0 || b == L {
			return 0
		}
		return hopLatencyNs + float64(p.BoundaryBytes[b])/bytesPerNs
	}
	prefix := make([]float64, L+1)
	for i, c := range p.CostNs {
		prefix[i+1] = prefix[i] + c
	}
	cost := func(j, i int) float64 {
		return xfer(j) + prefix[i] - prefix[j] + xfer(i)
	}

	const inf = 1e30
	dp := make([][]float64, K+1)
	cut := make([][]int, K+1)
	for k := 0; k <= K; k++ {
		dp[k] = make([]float64, L+1)
		cut[k] = make([]int, L+1)
		for i := range dp[k] {
			dp[k][i] = inf
			cut[k][i] = -1
		}
	}
	dp[0][0] = 0
	for k := 1; k <= K; k++ {
		// Stage k may end at boundary i only if at least k layers precede
		// it and at least K-k layers remain for the later stages.
		for i := k; i <= L-(K-k); i++ {
			for j := k - 1; j < i; j++ {
				if dp[k-1][j] >= inf {
					continue
				}
				c := max(dp[k-1][j], cost(j, i))
				if c < dp[k][i] {
					dp[k][i] = c
					cut[k][i] = j
				}
			}
		}
	}
	if dp[K][L] >= inf {
		return Plan{}, fmt.Errorf("cluster: no %d-stage partition of %d layers", K, L)
	}

	plan := Plan{
		Ranges:       make([][2]int, K),
		StageCostNs:  make([]float64, K),
		BottleneckNs: dp[K][L],
	}
	hi := L
	for k := K; k >= 1; k-- {
		lo := cut[k][hi]
		plan.Ranges[k-1] = [2]int{lo, hi}
		plan.StageCostNs[k-1] = cost(lo, hi)
		hi = lo
	}
	return plan, nil
}

// PlanFor profiles a deployment's network and partitions it into stages —
// the one-call path cmd/serve and the examples use.
func PlanFor(dep *eden.Deployment, cfg PartitionConfig) (Plan, error) {
	if dep.Net == nil {
		return Plan{}, fmt.Errorf("cluster: deployment %q has no network", dep.ModelName)
	}
	return Partition(ProfileNetwork(dep.Net, dep.Prec, 3), cfg)
}

// SliceAll carves a deployment into the plan's stage slices, in order.
func SliceAll(dep *eden.Deployment, plan Plan) ([]*eden.Deployment, error) {
	out := make([]*eden.Deployment, len(plan.Ranges))
	for k, r := range plan.Ranges {
		s, err := dep.Slice(r[0], r[1], k, len(plan.Ranges))
		if err != nil {
			return nil, err
		}
		out[k] = s
	}
	return out, nil
}
