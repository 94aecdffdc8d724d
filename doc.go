// Package repro is a from-scratch Go reproduction of "EDEN: Enabling
// Energy-Efficient, High-Performance Deep Neural Network Inference Using
// Approximate DRAM" (Koppula et al., MICRO 2019). The library lives under
// internal/ (README.md's "Layout" section is the system inventory),
// runnable binaries under cmd/, two usage examples under examples/
// (quickstart, and cluster, which make cluster-smoke runs), and the
// benchmark harness that regenerates every table and figure of the paper's
// evaluation in bench_test.go.
//
// # Compute backends and parallel execution
//
// The four kernels every pass bottoms out in (MatMul, MatMulTransB,
// Conv2D, Conv2DBackward) live behind the pluggable compute.Backend
// interface in internal/compute: "ref" is the direct-loop reference,
// "gemm" (the default) lowers convolution to a tiled GEMM over 16-column
// strips of the patch matrix, read in place from the zero-bordered input
// through a per-k offset table where a strip lies in it as two runs and
// staged in per-goroutine pool-recycled scratch slabs where not, its inner
// loops running eight float32 lanes wide on amd64 (AVX
// assembly behind compute's tile micro-kernel — 4 filters × 16 columns held
// in registers for the whole reduction, under Conv2D and batched
// MatMulTransB — and its axpy row primitive; one output element per lane,
// multiply and add rounded separately, so no bit moves). Blocking is applied over
// output coordinates only, never across the k reduction, so the float
// backends are bit-identical on every model — backend choice is a pure
// throughput knob with one process-wide switch: dnn's Conv and FC layers
// call compute.Default(), and -backend on cmd/eden and cmd/serve sets it
// once at start-up through compute.SetDefault.
//
// All hot paths share the worker pool in internal/parallel: the compute
// kernels, the fused serving executor (dnn.Network.ForwardBatchFused with
// per-sample corruptor clones), and the characterization and sweep loops
// in internal/eden and internal/experiments, which run one operating
// point per worker. The program has two forward paths — Network.Forward
// under training and under dnn's one evaluation loop, and
// ForwardBatchFused under serving; the per-sample fan-out
// Network.ForwardBatch is bench-and-test-only. The pool defaults to
// GOMAXPROCS and every cmd binary exposes it as -workers. Parallel results
// are bit-identical to serial ones at any worker count; see README.md for
// the architecture.
// cmd/eden and cmd/serve take -cpuprofile/-memprofile (internal/profiling)
// so kernel work can be driven by pprof evidence.
//
// # Deployment artifacts and serving
//
// The paper's Fig. 4 pipeline is exposed as one entry point:
// eden.Deploy runs profile → fit → boost → characterize → (optionally
// fine-grained characterize + Algorithm-1 map over device partitions) →
// calibrate, and captures everything needed to run the model in a
// serializable eden.Deployment — boosted network, fitted error model,
// operating points, per-data BER assignment, plausibility bounds.
// cmd/eden -o writes the artifact and cmd/serve -deployment loads it, so
// the serving path needs no dataset or training access. Serving programs
// against the eden.Cloner interface, which carries the determinism
// contract, with Deployment.NewCorruptor minting the corruptor an artifact
// prescribes.
//
// internal/serve layers a request/response engine on the inference
// primitives: a Server registry of deployed models (weights corrupted
// once at load through the deployment's corruptor, IFMs corrupted per
// request through seeded eden.ClonePool clones, pre-warmed to MaxBatch
// per concurrent pass), a continuous-batching scheduler and per-model
// statistics (QPS, p50/p99 latency, batch-size histogram, shed/expired
// counts, passes in flight). Each model runs a collector and up to
// parallel.Workers() identical dispatcher goroutines: the collector forms
// the next micro-batch from a bounded admission queue while earlier ones
// compute, and hands it over when no pass is in flight or when it is full
// and a dispatcher is free — so a dispatch starts the moment compute is
// free (MaxLatency 0, the work-conserving default), batch occupancy
// tracks concurrent load rather than a fixed collection window, and only
// a backlog of full batches runs passes side by side. Every
// batch, a lone request included, dispatches through
// dnn.ForwardBatchFused, a pass that owns every activation it holds: one
// batched kernel call per Conv/FC/composite layer, and between two of
// them one fan-out over the samples in which each sample's ReLU, pooling
// and flatten layers and its corruption hooks run back to back on that
// sample's slab — in place, or into one of two recycled whole-batch
// slabs when a layer changes the element count — on the exact
// compute.Clamp and compute.MaxPool2x2 primitives. It is bit-identical
// to the per-sample Network.Forward passes that training and the
// characterization sweeps run.
// Admission control bounds the damage under overload: a full queue sheds
// with ErrQueueFull (HTTP 429 plus a Retry-After estimate from queue
// occupancy x smoothed drain time per request) and requests whose deadline
// expires or whose caller cancels while queued are dropped before dispatch
// (ErrExpired, HTTP 504).
// A deployment is the only way onto a server: Server.Deploy registers an
// artifact, Server.DeployStage a layer-range slice of one, and serving a
// zoo model at a raw BER is Server.Deploy of an eden.UniformDeployment.
// cmd/serve exposes all three over HTTP/JSON — including GET
// /v1/models/{name} for deployment metadata and GET /v1/healthz for
// load-balancer probes, with graceful drain on SIGINT/SIGTERM
// (Server.BeginDrain flips the probe to 503 while in-flight traffic
// completes, then http.Server.Shutdown) — and cmd/bench (contract in
// BENCHMARK.json, make bench-e2e) load-tests them in process, over HTTP
// and through the cluster, checking every reply bit for bit.
// A request's output is a pure function of (deployment, input, seed),
// independent of batching regime, batch composition, queue pressure,
// worker count, concurrent passes and compute backend. GET /metrics exposes the per-model
// stats rings in the Prometheus text format.
//
// # Cluster serving
//
// internal/cluster shards one model across processes as a pipeline of
// layer-range stages. A partitioner (ProfileNetwork + Partition) probes
// per-layer compute cost once, sizes every layer boundary at the
// deployment's precision, and chooses K-1 cut points by dynamic
// programming that minimizes the bottleneck stage — per-stage compute
// plus the activation-transfer cost of its edges — since pipeline
// throughput is set by the slowest stage. eden.Deployment.Slice carves
// out a stage: the sub-network plus that range's share of the per-data
// BER assignment and bounds. cmd/serve -role stage serves a slice,
// accepting raw activations as binary frames on POST
// /v1/models/{name}/infer; cmd/serve -role dispatcher fronts the fleet
// behind the unchanged JSON predict API, streaming activations stage to
// stage with per-stage in-flight pipelining, round-robining stage
// replicas, and using /v1/healthz polling for membership so draining
// replicas fall out of rotation. The determinism contract extends
// across the wire: error draws are pure functions of (seed, bit
// position), every slice pins the full-model DRAM bit layout
// (eden.DataLayout), and the codec carries exact float32 bit patterns —
// so cluster output is bit-identical to single-process serving,
// enforced by internal/cluster's loopback e2e test and the
// make cluster-smoke CI step with real processes.
//
// # The determinism contract, enforced
//
// The reproducibility discipline above is not a convention but a set of
// enforced invariants: internal/lint holds a custom static-analysis
// suite (run by cmd/repro-lint, gating CI via make lint) whose nine
// analyzers each guard one clause. nomathrand forbids math/rand in
// favour of seeded tensor.RNG streams, and rngstream proves — with
// reaching definitions over a control-flow graph — that every RNG a
// go-closure or parallel pool task draws from is a per-task stream
// derived by Split/SplitN before the fan-out; forwardpurity forbids dnn
// layers writing receiver state on the inference path of
// Forward/ForwardBatch, the data-race class that would break
// shared-network batching, with impurity summaries exported as
// serializable per-package facts so mutations reached through imported
// packages are caught too; lockcheck forbids paths that return with a
// lock held and (in serve) blocking channel operations under a lock
// (copied mutexes are go vet's copylocks); loopcapture forbids fan-out
// closures writing shared cells;
// hotalloc forbids per-iteration allocation in loops on the hot paths
// (all of compute, the dnn forward call trees); noclocktime keeps
// wall-clock reads out of the deterministic packages (tensor, compute,
// dnn, eden, errormodel, quant); maporder rejects order-sensitive
// accumulation inside map iteration; errreturn rejects silently
// discarded errors on the artifact and serving paths. The framework
// beneath them (internal/lint/analysis) supplies the CFG builder, the
// bit-vector dataflow solvers and the gob-round-tripped cross-package
// fact store on the standard library alone. Violations that are
// genuinely benign are silenced line-by-line with a justified
// //lint:ignore <analyzer> <reason> directive, or recorded in the
// reviewed .lint-baseline.json (make lint-baseline), whose staleness
// fails CI. See README.md ("Static analysis") for the full contract.
package repro
