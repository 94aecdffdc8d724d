// Package serve turns the repository's inference primitives into a
// request/response serving engine: a Server owns a registry of loaded
// models, each paired with a pre-calibrated approximate-DRAM corruptor,
// and a continuous-batching scheduler per model.
//
// The scheduler is a two-stage pipeline. A collector goroutine admits
// requests from the model's bounded queue and forms the next micro-batch
// *while earlier ones are computing*; up to parallel.Workers() identical
// dispatcher goroutines each run a formed batch as one
// dnn.ForwardBatchFused pass — one batched kernel call per layer over the
// shared parallel pool, a batch of one included. The collector hands its
// batch over when no pass of the model is in flight, or when the batch is
// full and a dispatcher is free: a partial batch waits for the compute
// stage to be idle and grows meanwhile, so at any load that does not fill a
// batch one pass runs at a time and occupancy tracks the queue pressure
// during it; a full batch with more waiting behind it opens a second pass
// instead of queueing behind one whose fork-joins leave cores idle. The
// hand-off is unbuffered, so the moment a dispatch returns the next batch
// starts, with no window spent collecting stragglers.
//
// Admission control keeps the pipeline healthy under overload: the
// per-model queue is bounded (QueueDepth) and a full queue sheds the
// request with ErrQueueFull — surfaced over HTTP as 429 plus a Retry-After
// estimate — instead of blocking callers into memory exhaustion. Requests
// may carry deadlines; the collector drops expired requests (ErrExpired)
// before dispatch rather than spending compute on answers nobody is
// waiting for. Shed and expiry counts are tracked per model in Stats.
//
// An eden.Deployment is the only way onto a server. Server.Deploy consumes
// the artifact the pipeline produces (boosted network, fitted error model,
// operating points, fine-grained BER assignment, calibrated bounds) and
// therefore needs no dataset or training access; Server.DeployStage takes a
// layer-range slice of one. Serving a zoo model at an explicit error rate
// without running the pipeline is the same path fed an
// eden.UniformDeployment. Every model runs on the process-wide compute
// backend (compute.Default, which cmd/serve sets from -backend); when that
// is the quantized one, registration adopts the int8 weight images it
// consumes, and Info reports it.
//
// Determinism is preserved end to end: every request carries a seed, the
// scheduler draws a per-request corruptor clone from an eden.ClonePool
// (pre-warmed at registration to MaxBatch clones per concurrent pass) reset
// to that seed, and the fused pass is bit-identical to serial per-sample
// forwards and keeps its state on its own stack — so a request's output is
// a pure function of (deployment, input, seed), independent of batch
// composition, queue pressure, worker count, scheduling and whatever other
// pass is computing beside it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/compute"
	"repro/internal/dnn"
	"repro/internal/eden"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// ErrClosed is returned for requests that race with Server.Close.
var ErrClosed = errors.New("serve: server closed")

// ErrQueueFull is returned when a request arrives while the model's
// admission queue is at capacity. The request was not enqueued; the caller
// should back off (HTTP surfaces this as 429 with a Retry-After estimate).
var ErrQueueFull = errors.New("serve: queue full")

// ErrExpired is returned when a request's deadline passed while it was
// still queued; the scheduler drops such requests — and those whose caller
// has cancelled — before dispatch instead of computing answers nobody is
// waiting for.
var ErrExpired = errors.New("serve: deadline expired in queue")

// Config controls the continuous-batching scheduler.
type Config struct {
	// MaxBatch is the largest batch one dispatch may carry (default 16).
	// 1 disables batching: every request dispatches immediately.
	MaxBatch int
	// MaxLatency optionally bounds how long a partial batch waits for
	// companions while the compute stage is idle. The default 0 is
	// work-conserving: a batch dispatches the moment no pass is in flight,
	// and grows only with the requests that arrive while earlier batches
	// are computing. A positive window trades first-request latency for
	// batch occupancy at low offered load.
	MaxLatency time.Duration
	// QueueDepth is the per-model admission queue capacity (default
	// 4×MaxBatch). A full queue sheds new requests with ErrQueueFull
	// rather than blocking callers.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 16
	}
	if c.MaxLatency < 0 {
		c.MaxLatency = 0
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// Role names what a serving process is in a deployment topology: a
// standalone server owning whole models, a pipeline stage owning a layer
// range of one model, or a cluster dispatcher fronting stages.
type Role string

const (
	RoleStandalone Role = "standalone"
	RoleStage      Role = "stage"
	RoleDispatcher Role = "dispatcher"
)

// Server owns the model registry and the scheduler configuration shared by
// all models registered on it.
type Server struct {
	cfg      Config
	mu       sync.RWMutex
	models   map[string]*Model
	reserved map[string]bool
	role     Role
	stage    *eden.StageInfo // set by the first DeployStage
	draining bool
	closed   bool
}

// New builds an empty server.
func New(cfg Config) *Server {
	return &Server{
		cfg:      cfg.withDefaults(),
		models:   map[string]*Model{},
		reserved: map[string]bool{},
		role:     RoleStandalone,
	}
}

// Config returns the scheduler configuration (defaults applied).
func (s *Server) Config() Config { return s.cfg }

// Role reports what this server is in the deployment topology. A fresh
// server is standalone; the first DeployStage turns it into a stage.
func (s *Server) Role() Role {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.role
}

// StageInfo returns the pipeline-stage identity of a stage server (nil for
// standalone servers).
func (s *Server) StageInfo() *eden.StageInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stage
}

// reserve claims a model name before the expensive build starts, so
// concurrent registrations of the same name fail fast instead of training a
// model only to throw it away at publication time.
func (s *Server) reserve(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.models[name]; dup || s.reserved[name] {
		return fmt.Errorf("serve: model %q already registered", name)
	}
	s.reserved[name] = true
	return nil
}

// release abandons a reservation after a failed build.
func (s *Server) release(name string) {
	s.mu.Lock()
	delete(s.reserved, name)
	s.mu.Unlock()
}

// commit publishes a built model under its reservation and starts its
// scheduler. A stage turns the server into a stage server in the same
// critical section, so no probe sees the model without the role.
func (s *Server) commit(m *Model) error {
	s.mu.Lock()
	delete(s.reserved, m.name)
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.models[m.name] = m
	if st := m.dep.Stage; st != nil {
		s.role = RoleStage
		if s.stage == nil {
			s.stage = st
		}
	}
	s.mu.Unlock()
	m.start()
	return nil
}

// Deploy registers a whole-model deployment artifact: the network is served
// at the artifact's precision under the error exposure it records — per-data
// partition BERs when fine-grained mapping succeeded, the uniform ServingBER
// otherwise — with the plausibility bounds calibrated when the artifact was
// made. Everything needed is in the artifact, so no dataset or training
// access happens here; a loaded artifact (eden.LoadDeploymentFile) serves
// identically to a freshly built one.
func (s *Server) Deploy(dep *eden.Deployment) (*Model, error) {
	if dep == nil {
		return nil, fmt.Errorf("serve: nil deployment")
	}
	if dep.Stage != nil {
		return nil, fmt.Errorf("serve: deployment %q is a pipeline-stage slice; use DeployStage", dep.ModelName)
	}
	return s.register(dep)
}

// DeployStage registers a pipeline-stage slice of a deployment (produced
// by eden.Deployment.Slice) and marks the server as a stage. The stage
// serves raw activation tensors through PredictActivation — surfaced over
// HTTP as POST /v1/models/{name}/infer — corrupting only its own layer
// range; the pinned full-model DRAM layout carried by the slice keeps its
// error draws bit-identical to single-process serving.
func (s *Server) DeployStage(dep *eden.Deployment) (*Model, error) {
	if dep == nil {
		return nil, fmt.Errorf("serve: nil deployment")
	}
	if dep.Stage == nil {
		return nil, fmt.Errorf("serve: deployment %q is not a stage slice; use Deploy", dep.ModelName)
	}
	return s.register(dep)
}

// register is the one way a model gets onto the server: reserve the name,
// build the model, publish it and start its scheduler. A stage is a
// deployment whose Stage is set.
func (s *Server) register(dep *eden.Deployment) (*Model, error) {
	if err := s.reserve(dep.ModelName); err != nil {
		return nil, err
	}
	m, err := s.newModel(dep)
	if err != nil {
		s.release(dep.ModelName)
		return nil, err
	}
	if err := s.commit(m); err != nil {
		return nil, err
	}
	return m, nil
}

// newModel builds a deployment's serving state: a private clone of its
// network with the weight image laid into approximate DRAM once — as in
// EDEN, weights live there from the moment the model is stored — a pool of
// per-request corruptor clones for the IFMs, and the scheduler scaffolding.
func (s *Server) newModel(dep *eden.Deployment) (*Model, error) {
	spec, err := dnn.LookupSpec(dep.ModelName)
	if err != nil {
		return nil, err
	}
	net, err := dep.CloneNet()
	if err != nil {
		return nil, err
	}
	slots := parallel.Workers()
	m := &Model{
		name:     dep.ModelName,
		cfg:      s.cfg,
		spec:     spec,
		dep:      dep,
		net:      net,
		inputLen: net.InC * net.InH * net.InW,
		inDims:   []int{1, net.InC, net.InH, net.InW},
		slots:    slots,
		queue:    make(chan *pending, s.cfg.QueueDepth),
		batches:  make(chan []*pending),
		done:     make(chan struct{}, slots),
		quit:     make(chan struct{}),
		stats:    NewStats(s.cfg.MaxBatch),
	}
	if dep.Stage != nil {
		// A stage accepts its input boundary's activation, not the image.
		m.inDims = append([]int(nil), dep.Stage.InDims...)
	}
	corr := dep.NewCorruptor()
	// Static weight image at the deployment's operating point(s): corrupt
	// once, keep (no restore). Adoption first, so the corruptor refreshes
	// the int8 images in sync.
	adoptQuantized(net, dep.Prec)
	corr.CorruptWeights(net)
	m.pool = eden.NewClonePool(corr)
	// Pay the clone allocations now, not on the first full batches.
	m.pool.Prewarm(slots * s.cfg.MaxBatch)
	return m, nil
}

// adoptQuantized caches int8 weight-code images on the network when the
// process default backend is a quantized one, enabling the QuantBackend
// fast path (codes feed the integer kernels with no per-forward weight
// quantization). A no-op for float backends and for precisions with no
// int8 image. Runs before weight corruption so eden.CorruptWeights
// re-derives the images from the corrupted codes.
func adoptQuantized(net *dnn.Network, prec quant.Precision) {
	if _, ok := compute.Default().(compute.QuantBackend); ok {
		net.AdoptQuantizedWeights(prec)
	}
}

// Model returns a registered model by name.
func (s *Server) Model(name string) (*Model, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[name]
	return m, ok
}

// Models lists registered models sorted by name.
func (s *Server) Models() []*Model {
	s.mu.RLock()
	out := make([]*Model, 0, len(s.models))
	for _, m := range s.models {
		out = append(out, m)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// BeginDrain marks the server as draining: /v1/healthz starts answering
// 503 so load balancers take the instance out of rotation, while Predict
// keeps serving the requests already routed here. Call Close once the
// traffic has tailed off.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close stops every model's scheduler. In-flight batches finish; queued
// and subsequent requests fail with ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	models := make([]*Model, 0, len(s.models))
	for _, m := range s.models {
		//lint:ignore maporder shutdown order is immaterial: each close(quit) is independent and no output derives from the sequence
		models = append(models, m)
	}
	s.mu.Unlock()
	for _, m := range models {
		close(m.quit)
	}
}

// Model is one deployed DNN: the deployment it was registered from (whose
// Stage is set for a pipeline stage), a weight-corrupted clone of its
// network, its corruptor clone pool, its admission queue and its scheduler
// goroutines (the collector forming batches, slots dispatchers computing
// them).
type Model struct {
	name     string
	cfg      Config
	spec     dnn.ModelSpec
	dep      *eden.Deployment
	net      *dnn.Network
	inputLen int
	// inDims is the exact activation shape PredictActivation accepts
	// (leading batch dimension 1); stage registrations pin it to the slice's
	// input boundary, whole-model ones to (1, InC, InH, InW).
	inDims []int
	pool   *eden.ClonePool
	// slots is how many fused passes may compute at once: the worker budget
	// at registration. Each pass runs its kernels on its own goroutine plus
	// whatever helper tokens the shared pool has left, so more passes than
	// workers would only timeshare.
	slots   int
	queue   chan *pending   // bounded admission queue, fed by Predict
	batches chan []*pending // unbuffered collector→dispatcher hand-off
	// done carries one token per finished pass back to the collector, which
	// owns the in-flight count; its capacity is slots, the most passes that
	// can be outstanding, so a dispatcher never blocks on it.
	done  chan struct{}
	quit  chan struct{}
	stats *Stats
}

// Result is one served prediction.
type Result struct {
	// Output is the raw output vector (logits for classifiers, the
	// detection head encoding for detectors).
	Output []float32
	// ArgMax is the top-1 class for classifiers, -1 for detectors.
	ArgMax int
	// BatchSize is the size of the micro-batch the request rode in.
	BatchSize int
	// Latency is queue wait plus compute, measured from enqueue.
	Latency time.Duration
	// Dims is the shape of Output as the network produced it; activation
	// relays (the cluster dispatcher) re-encode the tensor from it.
	Dims []int
}

type outcome struct {
	res Result
	err error
}

type pending struct {
	x        *tensor.Tensor
	seed     uint64
	enq      time.Time
	deadline time.Time       // zero = no deadline
	gone     <-chan struct{} // the caller's ctx.Done(): closed once nobody waits for the reply
	out      chan outcome
}

// abandoned reports whether the request's caller has cancelled.
func (p *pending) abandoned() bool {
	select {
	case <-p.gone:
		return true
	default:
		return false
	}
}

// Name returns the model's registered name.
func (m *Model) Name() string { return m.name }

// Stats returns the model's serving statistics, including the admission
// queue's instantaneous occupancy.
func (m *Model) Stats() Snapshot {
	snap := m.stats.Snapshot()
	snap.QueueDepth = len(m.queue)
	snap.QueueCap = cap(m.queue)
	return snap
}

// RetryAfter estimates how long a shed caller should wait before retrying:
// the work already admitted (the queue plus a batch's worth in hand) times
// the smoothed wall-clock time the model takes to drain one request —
// however many passes share that work — clamped to [1s, 60s]. HTTP 429
// responses carry it as the Retry-After header.
func (m *Model) RetryAfter() time.Duration {
	est := m.stats.serviceEstimate()
	if est <= 0 {
		return time.Second
	}
	d := time.Duration(len(m.queue)+m.cfg.MaxBatch) * est
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// Info describes a deployed model for the listing API.
type Info struct {
	Name        string  `json:"name"`
	Task        string  `json:"task"`
	Precision   string  `json:"precision"`
	Backend     string  `json:"backend"`
	BER         float64 `json:"ber"`
	Params      int     `json:"params"`
	WeightBytes int     `json:"weight_bytes"`
	InputDims   [3]int  `json:"input_dims"`
	OutputLen   int     `json:"output_len"`
	// Stage identifies a pipeline-stage registration; the cluster
	// dispatcher discovers boundary shapes and stage positions from it.
	Stage *StageSummary `json:"stage,omitempty"`
}

// StageSummary is the wire-facing digest of a stage registration: position
// in the pipeline, layer range, and the exact boundary shapes the stage
// accepts and produces.
type StageSummary struct {
	Index   int    `json:"index"`
	Count   int    `json:"count"`
	Layers  [2]int `json:"layers"`
	InDims  []int  `json:"in_dims"`
	OutDims []int  `json:"out_dims"`
}

// Info returns the model's deployment metadata. WeightBytes is the
// precision-aware footprint of the served weight image.
func (m *Model) Info() Info {
	info := Info{
		Name:        m.name,
		Task:        "classify",
		Precision:   m.dep.Prec.String(),
		Backend:     compute.Default().Name(),
		BER:         m.dep.ServingBER,
		Params:      m.net.ParamCount(),
		WeightBytes: m.net.WeightBytes(m.dep.Prec),
		InputDims:   [3]int{m.net.InC, m.net.InH, m.net.InW},
		OutputLen:   m.net.Classes,
	}
	if m.spec.Task == dnn.Detect {
		info.Task = "detect"
	}
	if st := m.dep.Stage; st != nil {
		// A stage's output is its boundary activation, whatever the full
		// model's head would produce (only the last stage carries that head).
		info.OutputLen = tensor.Shape(st.OutDims[1:]).Size()
		info.Stage = &StageSummary{
			Index:   st.Index,
			Count:   st.Count,
			Layers:  [2]int{st.Lo, st.Hi},
			InDims:  append([]int(nil), st.InDims...),
			OutDims: append([]int(nil), st.OutDims...),
		}
	} else if m.net.Det != nil {
		info.OutputLen = m.net.Det.OutputSize()
	}
	return info
}

// Deployment returns the eden artifact the model was registered from.
func (m *Model) Deployment() *eden.Deployment { return m.dep }

// DeploymentDetail is the pipeline metadata of a model whose deployment
// came out of the pipeline, as reported by GET /v1/models/{name}.
type DeploymentDetail struct {
	Vendor       string             `json:"vendor"`
	TolerableBER float64            `json:"tolerable_ber"`
	ServingBER   float64            `json:"serving_ber"`
	DeltaVDD     float64            `json:"delta_vdd"`
	DeltaTRCD    float64            `json:"delta_trcd_ns"`
	FineGrained  bool               `json:"fine_grained"`
	Partitions   []PartitionSummary `json:"partitions,omitempty"`
}

// PartitionSummary condenses one fine-grained partition of a deployment:
// its operating point, measured BER, capacity and how many DNN data types
// Algorithm 1 assigned to it.
type PartitionSummary struct {
	ID        int     `json:"id"`
	BER       float64 `json:"ber"`
	VDD       float64 `json:"vdd"`
	TRCDNs    float64 `json:"trcd_ns"`
	Bits      int     `json:"bits"`
	DataTypes int     `json:"data_types"`
}

// ModelDetail is the full per-model description: the inventory Info plus
// deployment metadata when the artifact names the vendor it was
// characterized on (a uniform deployment has no module to describe).
type ModelDetail struct {
	Info
	Deployment *DeploymentDetail `json:"deployment,omitempty"`
}

// Detail returns the model's full description.
func (m *Model) Detail() ModelDetail {
	d := ModelDetail{Info: m.Info()}
	if m.dep.Vendor == "" {
		return d
	}
	dd := &DeploymentDetail{
		Vendor:       m.dep.Vendor,
		TolerableBER: m.dep.TolerableBER,
		ServingBER:   m.dep.ServingBER,
		DeltaVDD:     m.dep.DeltaVDD,
		DeltaTRCD:    m.dep.DeltaTRCD,
		FineGrained:  m.dep.FineGrained,
	}
	counts := map[int]int{}
	for _, p := range m.dep.Assignment {
		counts[p]++
	}
	for _, p := range m.dep.Partitions {
		dd.Partitions = append(dd.Partitions, PartitionSummary{
			ID:        p.ID,
			BER:       p.BER,
			VDD:       p.Op.VDD,
			TRCDNs:    p.Op.Timing.TRCD,
			Bits:      p.Bits,
			DataTypes: counts[p.ID],
		})
	}
	d.Deployment = dd
	return d
}

// Predict admits one request and blocks until its micro-batch is served.
// input must hold InC×InH×InW values; seed selects the request's
// deterministic transient-error stream (ignored when the model serves from
// reliable DRAM). Admission is non-blocking: a full queue sheds the
// request with ErrQueueFull immediately instead of stalling the caller. A
// context deadline and cancellation travel with the request; if either
// happens while the request is still queued, the collector drops it before
// dispatch.
func (m *Model) Predict(ctx context.Context, input []float32, seed uint64) (Result, error) {
	if len(input) != m.inputLen {
		return Result{}, fmt.Errorf("serve: input length %d, want %d", len(input), m.inputLen)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	x := tensor.FromSlice(append([]float32(nil), input...), 1, m.net.InC, m.net.InH, m.net.InW)
	return m.submit(ctx, x, seed)
}

// PredictActivation admits one raw activation tensor — the stage-serving
// entry point, fed by the dispatcher over the binary wire format. x must
// match the model's input boundary shape exactly (leading batch dimension
// 1) and is owned by the scheduler from this call on. Admission, deadlines
// and shedding behave exactly as in Predict.
func (m *Model) PredictActivation(ctx context.Context, x *tensor.Tensor, seed uint64) (Result, error) {
	shape := x.Shape()
	if len(shape) != len(m.inDims) {
		return Result{}, fmt.Errorf("serve: activation rank %d, want %d", len(shape), len(m.inDims))
	}
	for i, d := range m.inDims {
		if shape[i] != d {
			return Result{}, fmt.Errorf("serve: activation dims %v, want %v", []int(shape), m.inDims)
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return m.submit(ctx, x, seed)
}

// submit enqueues one prepared request tensor and blocks until its
// micro-batch is served — the shared tail of Predict and PredictActivation.
func (m *Model) submit(ctx context.Context, x *tensor.Tensor, seed uint64) (Result, error) {
	deadline, _ := ctx.Deadline()
	p := &pending{x: x, seed: seed, enq: time.Now(), deadline: deadline, gone: ctx.Done(), out: make(chan outcome, 1)}
	select {
	case m.queue <- p:
	case <-m.quit:
		return Result{}, ErrClosed
	default:
		m.stats.recordShed()
		return Result{}, ErrQueueFull
	}
	select {
	case o := <-p.out:
		return o.res, o.err
	case <-m.quit:
		// Drained by the exiting scheduler, or enqueued just after it
		// left; either way the batch will not run.
		select {
		case o := <-p.out:
			return o.res, o.err
		default:
			return Result{}, ErrClosed
		}
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// start launches the model's scheduler: one collector and slots identical
// dispatchers.
func (m *Model) start() {
	go m.collect()
	for i := 0; i < m.slots; i++ {
		go m.run()
	}
}

// collect is the admission half of the scheduler. It forms the next
// micro-batch while the dispatchers compute earlier ones: the offer loop
// simultaneously waits for a dispatcher to take the batch and keeps
// admitting arrivals into it (up to MaxBatch), so batch occupancy tracks
// the queue pressure during the passes before it instead of a fixed
// collection window. The batch is on offer when no pass is in flight, or
// when it is full and fewer than slots are; the collector alone counts
// passes in flight — up at the hand-off, down at a done token — so the
// pass that ends while a partial batch waits always wakes the loop that
// then offers it. Expired and abandoned requests are swept out before every
// hand-off attempt. On quit it fails everything it holds and closes the
// hand-off channel, which stops each dispatcher after its in-flight batch.
func (m *Model) collect() {
	defer close(m.batches)
	inflight := 0
	for {
		var first *pending
		select {
		case first = <-m.queue:
		case <-m.done:
			inflight--
			continue
		case <-m.quit:
			m.drain()
			return
		}
		batch := append(make([]*pending, 0, m.cfg.MaxBatch), first)
		// Optional fill window: with MaxLatency > 0 a partial batch
		// lingers for companions before it is offered at all. The
		// work-conserving default (0) skips straight to the offer loop.
		if m.cfg.MaxLatency > 0 && m.cfg.MaxBatch > 1 {
			timer := time.NewTimer(m.cfg.MaxLatency)
		fill:
			for len(batch) < m.cfg.MaxBatch {
				select {
				case p := <-m.queue:
					batch = append(batch, p)
				case <-timer.C:
					break fill
				case <-m.quit:
					timer.Stop()
					m.fail(batch)
					m.drain()
					return
				}
			}
			timer.Stop()
		}
		for batch != nil {
			// Greedily absorb everything already queued before offering:
			// the select below admits one arrival per hand-off attempt and
			// picks randomly among ready cases, so with a dispatcher
			// already waiting it would take the batch half the time and
			// occupancy would collapse toward one while the queue sat
			// full. Draining first makes the dispatched batch carry
			// min(queued, MaxBatch) requests.
		drain:
			for len(batch) < m.cfg.MaxBatch {
				select {
				case p := <-m.queue:
					batch = append(batch, p)
				default:
					break drain
				}
			}
			batch = m.sweep(batch)
			if len(batch) == 0 {
				batch = nil // nobody left waiting; collect anew
				break
			}
			// Arm a timer at the earliest member deadline so a stalled
			// hand-off (dispatchers busy, no arrivals) still re-sweeps the
			// moment a queued request expires.
			var expiry <-chan time.Time
			var timer *time.Timer
			if t := earliestDeadline(batch); !t.IsZero() {
				timer = time.NewTimer(time.Until(t))
				expiry = timer.C
			}
			full := len(batch) == m.cfg.MaxBatch
			var arrivals chan *pending
			if !full {
				arrivals = m.queue
			}
			var offer chan []*pending
			if inflight == 0 || full && inflight < m.slots {
				offer = m.batches
			}
			select {
			case p := <-arrivals:
				batch = append(batch, p)
			case offer <- batch:
				inflight++
				batch = nil
			case <-m.done:
				inflight--
			case <-expiry:
				// Re-sweep on the next iteration.
			case <-m.quit:
				if timer != nil {
					timer.Stop()
				}
				m.fail(batch)
				m.drain()
				return
			}
			if timer != nil {
				timer.Stop()
			}
		}
	}
}

// run is the compute half of the scheduler, one of slots alike: it
// dispatches formed batches, returning a done token after each, until the
// collector closes the hand-off channel at shutdown.
func (m *Model) run() {
	for batch := range m.batches {
		m.dispatch(batch)
		m.done <- struct{}{}
	}
}

// sweep fails every batch member nobody is waiting for any more — its
// deadline has passed or its caller has cancelled — and returns the
// survivors. It touches the clock only when some member actually carries a
// deadline.
func (m *Model) sweep(batch []*pending) []*pending {
	var now time.Time
	kept := batch[:0]
	for _, p := range batch {
		if !p.deadline.IsZero() && now.IsZero() {
			now = time.Now()
		}
		if p.abandoned() || !p.deadline.IsZero() && now.After(p.deadline) {
			m.stats.recordExpired()
			p.out <- outcome{err: ErrExpired}
		} else {
			kept = append(kept, p)
		}
	}
	return kept
}

// earliestDeadline returns the soonest member deadline, or zero if no
// member carries one.
func earliestDeadline(batch []*pending) time.Time {
	var t time.Time
	for _, p := range batch {
		if !p.deadline.IsZero() && (t.IsZero() || p.deadline.Before(t)) {
			t = p.deadline
		}
	}
	return t
}

// fail rejects a formed batch at shutdown.
func (m *Model) fail(batch []*pending) {
	for _, p := range batch {
		p.out <- outcome{err: ErrClosed}
	}
}

// drain fails everything still queued when the collector exits.
func (m *Model) drain() {
	for {
		select {
		case p := <-m.queue:
			p.out <- outcome{err: ErrClosed}
		default:
			return
		}
	}
}

// dispatch runs one micro-batch through the network as a fused pass: one
// batched kernel call per Conv/FC layer, amortizing weight traffic across
// the batch, with the kernels splitting their output coordinates and the
// per-sample layers and corruption hooks between them fanning out across
// the worker pool. A lone request is a fused batch of one. Sample i's IFM
// hook is a pool clone reset to request i's seed, corrupting its slab of
// the pass's own batch tensor in place, and recycled when the pass
// completes. The pass returns private, capacity-limited views of one
// output slab, which go to the callers as they are.
func (m *Model) dispatch(batch []*pending) {
	start := m.stats.begin()
	xs := make([]*tensor.Tensor, len(batch))
	for i, p := range batch {
		xs[i] = p.x
	}
	clones := make([]eden.Cloner, len(batch))
	outs := m.net.ForwardBatchFused(xs, dnn.BatchOptions{
		HookFor: func(i int) dnn.IFMHook {
			clones[i] = m.pool.Get(batch[i].seed)
			return clones[i].IFMHookInPlace()
		},
		Done: func(i int) { m.pool.Put(clones[i]) },
	})
	end := time.Now()
	lats := make([]time.Duration, len(batch))
	for i, p := range batch {
		lats[i] = end.Sub(p.enq)
	}
	// Record before delivering: a caller that reads the stats once its
	// Predict has returned must find its own request counted.
	m.stats.Record(len(batch), end.Sub(start), lats)
	for i, p := range batch {
		res := Result{
			Output:    outs[i].Data,
			ArgMax:    -1,
			BatchSize: len(batch),
			Latency:   lats[i],
			Dims:      outs[i].Shape(),
		}
		// Stages serve activations, not predictions — the dispatcher
		// interprets the final stage's output.
		if m.spec.Task != dnn.Detect && m.dep.Stage == nil {
			res.ArgMax = outs[i].ArgMax()
		}
		p.out <- outcome{res: res}
	}
}
