package bench

// adapter.go is the only file of the benchmark that imports the program
// under test. Everything else talks to the types and closures declared
// here, so when the program's API is consolidated the benchmark follows
// with a change to this one file. Every layer is driven from outside,
// through functions any other caller could use: no hooks, counters or
// spans are added inside the program.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/eden"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// HostFacts records the program-side defaults a run was measured under.
type HostFacts struct {
	Workers int
	Backend string
}

// ProgramDefaults reports the worker pool size and compute backend the
// program picks on its own; the benchmark overrides neither.
func ProgramDefaults() HostFacts {
	return HostFacts{Workers: parallel.Workers(), Backend: compute.Default().Name()}
}

// TrainModel makes the named zoo model available, training it when the
// model cache (EDEN_MODEL_CACHE) does not hold it.
func TrainModel(model string) error {
	_, err := dnn.Pretrained(model)
	return err
}

// deployConfig is the pipeline configuration of each benchmark model: a
// fine-grained LeNet flow with one boosting round (the paper's Fig. 4 end
// to end), and a coarse VGG-16 flow without boosting (serving needs the
// artifact, not the hour of retraining). The pipeline seed is fixed, so
// the artifact is the same on every run and for every --seed.
func deployConfig(model string) (eden.DeployConfig, error) {
	cfg := eden.DefaultDeploy("A")
	cfg.Prec = quant.Int8
	cfg.Char.MaxSamples = 30
	cfg.Char.Repeats = 1
	cfg.Char.SearchSteps = 5
	switch model {
	case "LeNet":
		cfg.Rounds = 1
		cfg.RetrainEpochs = 2
		cfg.FineGrained = true
	case "VGG-16":
		cfg.Rounds = 0
	default:
		return cfg, fmt.Errorf("bench: no pipeline configuration for model %q", model)
	}
	return cfg, nil
}

// Artifact is a deployment produced by the EDEN pipeline.
type Artifact struct{ dep *eden.Deployment }

// ArtifactFacts are the artifact's Table-3 numbers; they must repeat
// exactly between commits that claim to change only speed.
type ArtifactFacts struct {
	TolerableBER, ServingBER, DeltaVDD, DeltaTRCDNs float64
}

// Deploy runs the whole pipeline for model through eden.Deploy.
func Deploy(model string) (*Artifact, error) {
	cfg, err := deployConfig(model)
	if err != nil {
		return nil, err
	}
	dep, err := eden.Deploy(model, cfg)
	if err != nil {
		return nil, err
	}
	return &Artifact{dep}, nil
}

// DeployPiecewise rebuilds eden.Deploy's flow from its public stages so
// that each phase can be timed from outside: phase(name) is called before
// a stage and the function it returns after. The result must encode to the
// same bytes as Deploy's — the caller checks — or the reconstruction has
// drifted from the program and its phase times mean nothing.
func DeployPiecewise(model string, phase func(name string) (done func())) (*Artifact, error) {
	cfg, err := deployConfig(model)
	if err != nil {
		return nil, err
	}
	vendor, err := dram.VendorByName(cfg.Vendor)
	if err != nil {
		return nil, err
	}
	tm, err := dnn.Pretrained(model)
	if err != nil {
		return nil, err
	}
	cfg.Char.Prec = cfg.Prec

	done := phase("eden.profile_fit")
	device := dram.NewDevice(dram.DefaultGeometry(), vendor, cfg.Seed)
	em := eden.ProfileAndFit(device, cfg.ProfileVDD, cfg.ProfileMaxRows, cfg.Seed)
	done()

	dep := &eden.Deployment{ModelName: model, Vendor: vendor.Name, Prec: cfg.Prec, ErrorModel: em}
	coarse := func(net *dnn.Network) float64 {
		defer phase("eden.coarse_char")()
		return eden.CoarseCharacterize(tm, net, em, cfg.Char)
	}
	dep.BaselineTolBER = coarse(tm.Net)

	best, bestTol := tm.Net, dep.BaselineTolBER
	target := max(bestTol*4, 1e-3)
	for round := 0; round < cfg.Rounds; round++ {
		rc := eden.DefaultRetrain(em, target)
		rc.Epochs = cfg.RetrainEpochs
		rc.Prec = cfg.Prec
		rc.Seed = cfg.Seed + uint64(round)
		done = phase("eden.retrain")
		boosted := eden.Retrain(tm, rc)
		done()
		tol := coarse(boosted)
		if tol <= bestTol {
			break
		}
		best, bestTol, target = boosted, tol, tol*2
	}
	dep.TolerableBER = bestTol
	dep.Op = eden.CoarseMap(vendor, bestTol)
	dep.DeltaVDD = dep.Op.VDD - dram.NominalVDD
	dep.DeltaTRCD = dep.Op.Timing.TRCD - dram.NominalTiming().TRCD
	dep.ServingBER = vendor.ExpectedBER(dep.Op)

	if cfg.FineGrained && bestTol <= 0 {
		dep.FineGrainedErr = "coarse characterization found no tolerable BER to bootstrap from"
	}
	if cfg.FineGrained && bestTol > 0 {
		done = phase("eden.fine_char")
		tol := eden.FineCharacterize(tm, best, em, bestTol, cfg.Char, cfg.FineRounds)
		done()
		done = phase("eden.map_partition")
		parts, err := eden.PartitionDevice(device, vendor, bestTol, cfg.PartitionLevels, cfg.PartitionReads)
		if err != nil {
			return nil, err
		}
		assign, err := eden.MapFineGrained(eden.DataTolerances(best, cfg.Prec, tol), parts)
		if err == nil {
			dep.FineGrained = true
			dep.TolByData = tol
			dep.Partitions = parts
			dep.Assignment = assign
			dep.BERByData = eden.BERByAssignment(assign, parts)
		} else {
			dep.FineGrainedErr = err.Error()
		}
		done()
	}

	done = phase("eden.calibrate")
	dep.Net = tm.CloneNetFrom(best)
	corr := dep.NewCorruptor()
	corr.CalibrateNet(tm, dep.Net, cfg.CalibSamples, 0)
	dep.Bounds = corr.Bounds
	dep.WeightBytes = dep.Net.WeightBytes(cfg.Prec)
	done()
	return &Artifact{dep}, nil
}

// Encode serializes the artifact; equal artifacts encode to equal bytes.
func (a *Artifact) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := a.dep.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeArtifact is the inverse of Encode.
func DecodeArtifact(b []byte) (*Artifact, error) {
	dep, err := eden.LoadDeployment(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return &Artifact{dep}, nil
}

// Model returns the artifact's model name.
func (a *Artifact) Model() string { return a.dep.ModelName }

// InputLen is the number of values one request carries.
func (a *Artifact) InputLen() int { return a.dep.Net.InC * a.dep.Net.InH * a.dep.Net.InW }

// Facts returns the artifact's operating point.
func (a *Artifact) Facts() ArtifactFacts {
	return ArtifactFacts{
		TolerableBER: a.dep.TolerableBER, ServingBER: a.dep.ServingBER,
		DeltaVDD: a.dep.DeltaVDD, DeltaTRCDNs: a.dep.DeltaTRCD,
	}
}

// Reply is one served prediction as an in-process caller sees it.
type Reply struct {
	Output  []float32
	Batch   int
	Latency time.Duration // server-reported, enqueue to result
}

// ServeStats is a model's cumulative serving counters; the benchmark
// subtracts two readings to get a window's share.
type ServeStats struct {
	Requests, Batches, Shed, Expired uint64
	BusySeconds                      float64
	P50Ms                            float64
}

// Server is one serve.Server holding one deployed artifact, configured as
// cmd/serve ships it: serve.Config{} (MaxBatch 16, work-conserving,
// QueueDepth 64), default backend, default worker pool.
type Server struct {
	srv   *serve.Server
	model *serve.Model
}

// Serve deploys the artifact on a fresh standalone server.
func Serve(a *Artifact) (*Server, error) {
	s := serve.New(serve.Config{})
	m, err := s.Deploy(a.dep)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &Server{s, m}, nil
}

func serveStage(slice *eden.Deployment) (*Server, error) {
	s := serve.New(serve.Config{})
	m, err := s.DeployStage(slice)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &Server{s, m}, nil
}

// Predict serves one request in-process.
func (s *Server) Predict(ctx context.Context, input []float32, seed uint64) (Reply, error) {
	res, err := s.model.Predict(ctx, input, seed)
	if err != nil {
		return Reply{}, err
	}
	return Reply{Output: res.Output, Batch: res.BatchSize, Latency: res.Latency}, nil
}

// MaxBatch is the scheduler's batch limit.
func (s *Server) MaxBatch() int { return s.srv.Config().MaxBatch }

// Handler is the server's HTTP API.
func (s *Server) Handler() http.Handler { return serve.NewHandler(s.srv) }

// Stats reads the model's cumulative counters.
func (s *Server) Stats() ServeStats {
	snap := s.model.Stats()
	st := ServeStats{
		Requests: snap.Requests, Batches: snap.Batches, Shed: snap.Shed, Expired: snap.Expired,
		P50Ms: snap.P50Ms,
	}
	if snap.QPS > 0 {
		// The snapshot gives busy time only as a fraction of its own
		// first-request-to-last-dispatch window; undo the division.
		st.BusySeconds = snap.BusyFrac * float64(snap.Requests) / snap.QPS
	}
	return st
}

// Close stops the server's schedulers.
func (s *Server) Close() { s.srv.Close() }

// ClusterPlan describes where the partitioner cut the model.
type ClusterPlan struct {
	PlanMs        float64
	CutLayer      int
	BoundaryBytes int // float32 payload of the activation crossing the cut
	BoundaryDims  []int
}

// ClusterStats is the dispatcher's and the stages' own view of latency.
type ClusterStats struct {
	DispatcherP50Ms float64
	StageP50Ms      []float64
	Failures        uint64
}

// Cluster is a K-stage pipeline on loopback: one stage server per slice of
// the artifact, each behind its own listener, fronted by a dispatcher.
type Cluster struct {
	Plan   ClusterPlan
	stages []*Server
	eps    []*Endpoint
	disp   *cluster.Dispatcher
}

// ServeCluster cuts the artifact into k stages with the program's own
// partitioner and brings the pipeline up.
func ServeCluster(a *Artifact, k int) (c *Cluster, err error) {
	c = &Cluster{}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	t0 := time.Now()
	plan, err := cluster.PlanFor(a.dep, cluster.PartitionConfig{Stages: k})
	if err != nil {
		return nil, err
	}
	c.Plan.PlanMs = ms(time.Since(t0))
	slices, err := cluster.SliceAll(a.dep, plan)
	if err != nil {
		return nil, err
	}
	if k > 1 {
		c.Plan.CutLayer = plan.Ranges[1][0]
		c.Plan.BoundaryDims = slices[0].Stage.OutDims
		c.Plan.BoundaryBytes = 4
		for _, d := range c.Plan.BoundaryDims {
			c.Plan.BoundaryBytes *= d
		}
	}
	urls := make([][]string, k)
	for i, slice := range slices {
		st, err := serveStage(slice)
		if err != nil {
			return nil, err
		}
		c.stages = append(c.stages, st)
		ep, err := Listen(st.Handler())
		if err != nil {
			return nil, err
		}
		c.eps = append(c.eps, ep)
		urls[i] = []string{ep.URL}
	}
	c.disp, err = cluster.NewDispatcher(cluster.DispatcherConfig{Model: a.dep.ModelName, Stages: urls})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Handler is the dispatcher's HTTP API, the same surface as Server's.
func (c *Cluster) Handler() http.Handler { return c.disp.Handler() }

// Stats reads the dispatcher's and every stage's latency view.
func (c *Cluster) Stats() ClusterStats {
	snap := c.disp.Stats()
	st := ClusterStats{DispatcherP50Ms: snap.P50Ms, Failures: snap.Failures}
	for _, s := range c.stages {
		st.StageP50Ms = append(st.StageP50Ms, s.Stats().P50Ms)
	}
	return st
}

// StageStats sums the stages' cumulative serving counters.
func (c *Cluster) StageStats() ServeStats {
	var sum ServeStats
	for _, s := range c.stages {
		st := s.Stats()
		sum.Requests += st.Requests
		sum.Batches += st.Batches
		sum.Shed += st.Shed
		sum.Expired += st.Expired
		sum.BusySeconds += st.BusySeconds
	}
	return sum
}

// Close stops the dispatcher, the listeners and the stage servers.
func (c *Cluster) Close() {
	if c.disp != nil {
		c.disp.Close()
	}
	for _, ep := range c.eps {
		ep.Close()
	}
	for _, s := range c.stages {
		s.Close()
	}
}

// NetProbe drives an artifact's network directly, below the scheduler, in
// the state serving puts it in: weights corrupted once at load, per-sample
// corruptor clones drawn from a pool.
type NetProbe struct {
	net  *dnn.Network
	corr *eden.SoftwareDRAM
	pool *eden.ClonePool
	x1   *tensor.Tensor
	xs   []*tensor.Tensor
	x16  *tensor.Tensor
}

// NewNetProbe prepares the artifact's network and a batch of 16 inputs.
func NewNetProbe(a *Artifact, inputs [][]float32) (*NetProbe, error) {
	net, err := a.dep.CloneNet()
	if err != nil {
		return nil, err
	}
	p := &NetProbe{net: net, corr: a.dep.NewCorruptor()}
	p.corr.CorruptWeights(net)
	p.pool = eden.NewClonePool(p.corr)
	p.pool.Prewarm(16)
	dims := []int{1, net.InC, net.InH, net.InW}
	per := dims[1] * dims[2] * dims[3]
	p.x16 = tensor.New(16, dims[1], dims[2], dims[3])
	for i := 0; i < 16; i++ {
		in := inputs[i%len(inputs)]
		p.xs = append(p.xs, tensor.FromSlice(append([]float32(nil), in...), dims...))
		copy(p.x16.Data[i*per:(i+1)*per], in)
	}
	p.x1 = p.xs[0]
	return p, nil
}

// ForwardB1 is one clean single-sample forward pass.
func (p *NetProbe) ForwardB1() { p.net.Forward(p.x1, false, nil) }

// FusedB16 is one fused batch-16 pass, with the artifact's in-place
// corruption hooks exactly as the serve dispatcher installs them, or clean.
func (p *NetProbe) FusedB16(hooks bool) {
	opt := dnn.BatchOptions{}
	if hooks {
		clones := make([]eden.Cloner, len(p.xs))
		opt.HookFor = func(i int) dnn.IFMHook {
			c := p.pool.Get(uint64(i) + 1)
			clones[i] = c
			if ip, ok := c.(interface{ IFMHookInPlace() dnn.IFMHook }); ok {
				return ip.IFMHookInPlace()
			}
			return c.IFMHook()
		}
		opt.Done = func(i int) { p.pool.Put(clones[i]) }
	}
	p.net.ForwardBatchFused(p.xs, opt)
}

// FanoutB16 is one clean per-sample fan-out pass over the same batch, the
// path characterization sweeps evaluate accuracy through.
func (p *NetProbe) FanoutB16() { p.net.ForwardBatch(p.xs, dnn.BatchOptions{}) }

// LayerNames lists the network's top-level layers in order.
func (p *NetProbe) LayerNames() []string {
	names := make([]string, len(p.net.Layers))
	for i, l := range p.net.Layers {
		names[i] = l.Name()
	}
	return names
}

// LayersB16 pushes the 16-sample tensor through the network one layer at a
// time and reports how long each Layer.Forward took.
func (p *NetProbe) LayersB16(took func(layer int, d time.Duration)) {
	x := p.x16
	for i, l := range p.net.Layers {
		t0 := time.Now()
		x = l.Forward(x, false)
		took(i, time.Since(t0))
	}
}

// HookedForwardB1 runs one sample through Network.Forward with a timing
// wrapper around the artifact corruptor's IFM hook. span receives each hook
// call and each gap between hook calls — the gap is the layer's own forward.
func (p *NetProbe) HookedForwardB1(span func(name string, start, end time.Time)) {
	c := p.pool.Get(ProbeSeed)
	defer p.pool.Put(c)
	inner := c.IFMHook()
	var prevName string
	var prevEnd time.Time
	hook := func(i int, l dnn.Layer, x *tensor.Tensor) *tensor.Tensor {
		t0 := time.Now()
		if prevName != "" {
			span("dnn.layer."+prevName, prevEnd, t0)
		}
		y := inner(i, l, x)
		prevName, prevEnd = l.Name(), time.Now()
		span("eden.ifm_hook."+prevName, t0, prevEnd)
		return y
	}
	p.net.Forward(p.x1, false, hook)
	span("dnn.layer."+prevName, prevEnd, time.Now())
}

// CorruptWeights corrupts a weight image and restores it, what a serving
// registration and every characterization probe pay once.
func (p *NetProbe) CorruptWeights() { p.corr.CorruptWeights(p.net)() }

// CloneGetPut draws one per-request corruptor clone and returns it.
func (p *NetProbe) CloneGetPut() { p.pool.Put(p.pool.Get(7)) }

// TrainEpoch trains a fresh copy of the model for one epoch with its zoo
// recipe, the unit of work behind set-up and boosting.
func TrainEpoch(model string) (func(), error) {
	tm, err := dnn.Pretrained(model)
	if err != nil {
		return nil, err
	}
	if tm.TrainSet == nil {
		return nil, fmt.Errorf("bench: %s is not a classifier", model)
	}
	return func() {
		net := tm.CloneNet()
		dnn.TrainClassifier(net, tm.TrainSet, dnn.TrainOptions{Epochs: 1, Batch: tm.Spec.Batch, LR: tm.Spec.LR, Seed: 1})
	}, nil
}

// KernelProbe is one call into a compute backend at a fixed shape.
type KernelProbe struct {
	Name string
	Run  func()
	// MACs is the multiply-accumulate count of one call, and Bytes the
	// operand and result bytes it touches — both computed from the tensor
	// sizes, not measured.
	MACs, Bytes float64
}

// KernelProbes builds the kernel calls the benchmark times: VGG-16's
// conv2_2 at batch 16 and its fc1 on the float and the int8 backend, and a
// training-shaped convolution backward.
func KernelProbes() []KernelProbe {
	rng := tensor.NewRNG(0xBE7C)
	uniform := func(dims ...int) *tensor.Tensor {
		t := tensor.New(dims...)
		t.FillUniform(rng, -1, 1)
		return t
	}
	size := func(ts ...*tensor.Tensor) float64 {
		n := 0
		for _, t := range ts {
			n += 4 * t.Size()
		}
		return float64(n)
	}
	pad1 := tensor.Conv2DParams{Stride: 1, Padding: 1}
	cin, cw, cb := uniform(16, 32, 8, 8), uniform(32, 32, 3, 3), uniform(32)
	cout := compute.Gemm.Conv2D(cin, cw, cb, pad1)
	fa, fw := uniform(16, 256), uniform(512, 256)
	bin, bw := uniform(8, 32, 28, 28), uniform(64, 32, 3, 3)
	bout := compute.Gemm.Conv2D(bin, bw, nil, pad1)

	var out []KernelProbe
	for _, bk := range []compute.Backend{compute.Gemm, compute.QGemm} {
		out = append(out,
			KernelProbe{
				Name: bk.Name() + "_conv2d", Run: func() { bk.Conv2D(cin, cw, cb, pad1) },
				MACs: float64(cout.Size() * 32 * 9), Bytes: size(cin, cw, cb, cout),
			},
			KernelProbe{
				Name: bk.Name() + "_matmul_transb", Run: func() { bk.MatMulTransB(fa, fw) },
				MACs: 16 * 512 * 256, Bytes: size(fa, fw) + 4*16*512,
			})
	}
	out = append(out, KernelProbe{
		Name: "gemm_conv2d_backward", Run: func() { compute.Gemm.Conv2DBackward(bin, bw, true, bout, pad1) },
		MACs: 2 * float64(bout.Size()*32*9), Bytes: 2 * size(bin, bw, bout),
	})
	return out
}

// CodecProbe is one encode or decode call, named after the metric that
// reports its rate.
type CodecProbe struct {
	Name  string
	Run   func()
	Units float64 // values (Mval/s metrics) or bytes (MB/s metrics) per call
}

// CodecProbes builds the quantization calls — int8 quantize, dequantize
// and pack of a 64k-value tensor — and, when wireDims is given, the stage
// wire's encode and decode of an activation of that shape.
func CodecProbes(wireDims []int) ([]CodecProbe, error) {
	rng := tensor.NewRNG(0xC0DE)
	t := tensor.New(1 << 16)
	t.FillUniform(rng, -1, 1)
	q := quant.Quantize(t, quant.Int8)
	dst := make([]float32, t.Size())
	probes := []CodecProbe{
		{"quant.quantize_mvals_s", func() { quant.Quantize(t, quant.Int8) }, float64(t.Size())},
		{"quant.dequantize_mvals_s", func() { q.DequantizeInto(dst) }, float64(t.Size())},
		{"quant.pack_mb_s", func() { q.Pack() }, float64(q.Bytes())},
	}
	if wireDims == nil {
		return probes, nil
	}
	act := tensor.New(wireDims...)
	act.FillUniform(rng, -1, 1)
	var frame bytes.Buffer
	if err := serve.EncodeActivation(&frame, act, 1); err != nil {
		return nil, err
	}
	wire := frame.Bytes()
	return append(probes,
		CodecProbe{"serve.wire_encode_mb_s", func() {
			var b bytes.Buffer
			_ = serve.EncodeActivation(&b, act, 1) // same tensor encoded without error above
		}, float64(len(wire))},
		CodecProbe{"serve.wire_decode_mb_s", func() {
			_, _, _ = serve.DecodeActivation(bytes.NewReader(wire), act.Size()) // frame encoded above
		}, float64(len(wire))},
	), nil
}
