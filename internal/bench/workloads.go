package bench

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// Options selects and sizes one run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the measured window, split into slices.
	Seconds float64
	// Trace switches the run to the traced mode that yields the per-layer
	// metrics; end-to-end metrics never come from a traced run.
	Trace bool
	// Log receives progress lines; nil discards them.
	Log io.Writer

	// workDir holds the run's private model cache and its trace file:
	// .bench_build under the current directory, except in tests.
	workDir string
}

// warmup is the unmeasured load before the first slice: a second at the
// benchmark's own run length, shorter when a test measures less.
func (o Options) warmup() time.Duration {
	return min(time.Second, time.Duration(o.Seconds/8*float64(time.Second)))
}

// probe is how long each per-layer probe of a traced run repeats its call:
// 300 ms at the benchmark's own run length.
func (o Options) probe() time.Duration {
	return min(300*time.Millisecond, time.Duration(o.Seconds/40*float64(time.Second)))
}

// Result is what one run reports.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   Metrics  `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

// run is the state one workload execution threads through its phases.
type run struct {
	opt Options
	tr  *Tracer // nil when tracing is off
	res *Result
	gen *Generator
}

func (r *run) logf(format string, args ...any) {
	if r.opt.Log != nil {
		say(r.opt.Log, "bench: %s: %s\n", r.opt.Workload, fmt.Sprintf(format, args...))
	}
}

func (r *run) notef(format string, args ...any) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// noteSteal puts on record what the host did to a run's intervals: how many
// it disturbed, and whether they were left out (kept is how many count).
func (r *run) noteSteal(what string, steal []float64, kept int) {
	disturbed := 0
	for _, s := range steal {
		if s > stealLimit {
			disturbed++
		}
	}
	switch {
	case disturbed == 0:
	case kept < len(steal):
		r.notef("host stole more than %.0f%% of the CPU time of %d of %d %s; %d are not counted", 100*stealLimit, disturbed, len(steal), what, len(steal)-kept)
	default:
		r.notef("host stole more than %.0f%% of the CPU time of %d of %d %s; too few are left, so all are counted", 100*stealLimit, disturbed, len(steal), what)
	}
}

// fail records a correctness failure: the run completes and reports, but
// Correct is false and the command exits non-zero.
func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	r.notef("FAIL: "+format, args...)
}

// budget is the wall time a run of the workload is expected to need on the
// reference 2-CPU host, set-up included. The command aborts a run at three
// times this, capped below the benchmark contract's own 180 s limit.
func budget(workload string, seconds float64) time.Duration {
	setup := 12.0
	if workload == "vgg_batched" {
		setup = 30
	}
	return time.Duration((setup + 1.75*seconds + 15) * float64(time.Second))
}

// Run executes one workload and returns its result. An error means the
// benchmark itself could not run (bad options, set-up failure); a wrong
// output is not an error but Result.Correct == false.
func Run(opt Options) (*Result, error) {
	known := false
	for _, w := range Workloads {
		known = known || w.Name == opt.Workload
	}
	if !known {
		return nil, fmt.Errorf("bench: unknown workload %q", opt.Workload)
	}
	if opt.Seconds <= 0 {
		return nil, fmt.Errorf("bench: --seconds must be positive")
	}
	base := opt.workDir
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Always cold: the program's model cache points into this run's own
	// directory, so set-up never depends on what an earlier run left.
	prev, had := os.LookupEnv("EDEN_MODEL_CACHE")
	if err := os.Setenv("EDEN_MODEL_CACHE", filepath.Join(dir, "cache")); err != nil {
		return nil, err
	}
	defer func() {
		if had {
			_ = os.Setenv("EDEN_MODEL_CACHE", prev) // restoring a value that was valid before
		} else {
			_ = os.Unsetenv("EDEN_MODEL_CACHE") // same
		}
	}()

	r := &run{opt: opt, res: &Result{Workload: opt.Workload, Seed: opt.Seed, Trace: opt.Trace, Correct: true}}
	if opt.Trace {
		r.tr = NewTracer()
		r.res.Metrics = newMetrics(PerLayer)
	} else {
		r.res.Metrics = newMetrics(EndToEnd)
	}
	switch opt.Workload {
	case "lenet_pipeline":
		err = r.pipeline()
	default:
		err = r.serving()
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", opt.Workload, err)
	}
	if opt.Trace {
		r.res.TraceFile = filepath.Join(base, "trace-"+opt.Workload+".json")
		if err := r.tr.WriteFile(r.res.TraceFile); err != nil {
			return nil, err
		}
	}
	if r.res.Failed > 0 {
		r.res.Correct = false
	}
	return r.res, nil
}

// scaled returns xs multiplied by k, for printing.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

// rig is a serving workload's stack once set-up has brought it up.
type rig struct {
	model string
	art   *Artifact
	// ref is a standalone server on the artifact. It is the system under
	// test for vgg_batched and lenet_http, and for lenet_cluster_k2 the
	// single-process reference the cluster's bits are compared against.
	ref     *Server
	cluster *Cluster
	front   *Endpoint    // where HTTP clients connect; nil in-process
	handler http.Handler // the front door's handler, for the no-TCP probe
	clients int
	deployS float64
	closers []func()
}

func (g *rig) close() {
	for i := len(g.closers) - 1; i >= 0; i-- {
		g.closers[i]()
	}
}

// setup trains the workload's model, runs the pipeline for its artifact
// and brings the serving stack up; everything here is timed as setup_s.
func (r *run) setup() (_ *rig, setupS float64, err error) {
	g := &rig{model: "LeNet", clients: min(runtime.NumCPU(), 2)}
	if r.opt.Workload == "vgg_batched" {
		// Two full batches of callers parked in Predict: one batch computes
		// while the next one forms.
		g.model, g.clients = "VGG-16", 32
	}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	t0 := time.Now()
	if err = TrainModel(g.model); err != nil {
		return nil, 0, err
	}
	r.logf("trained %s in %.1fs", g.model, time.Since(t0).Seconds())
	t1 := time.Now()
	if g.art, err = Deploy(g.model); err != nil {
		return nil, 0, err
	}
	g.deployS = time.Since(t1).Seconds()
	if r.opt.Workload == "lenet_cluster_k2" {
		if g.cluster, err = ServeCluster(g.art, 2); err != nil {
			return nil, 0, err
		}
		g.closers = append(g.closers, g.cluster.Close)
		g.handler = g.cluster.Handler()
		// PlanFor times the layers to choose the cut, and LeNet's candidates
		// are nearly tied: which one a run got explains part of its numbers.
		r.notef("cluster cut before layer %d, %d boundary bytes", g.cluster.Plan.CutLayer, g.cluster.Plan.BoundaryBytes)
	} else {
		if g.ref, err = Serve(g.art); err != nil {
			return nil, 0, err
		}
		g.closers = append(g.closers, g.ref.Close)
		g.handler = g.ref.Handler()
	}
	if r.opt.Workload != "vgg_batched" {
		if g.front, err = Listen(g.handler); err != nil {
			return nil, 0, err
		}
		g.closers = append(g.closers, g.front.Close)
	}
	setupS = time.Since(t0).Seconds()
	if g.ref == nil {
		// Not part of the cluster workload: the benchmark's own oracle.
		if g.ref, err = Serve(g.art); err != nil {
			return nil, 0, err
		}
		g.closers = append(g.closers, g.ref.Close)
	}
	return g, setupS, nil
}

// targets builds one load-generator client per closed-loop caller.
func (g *rig) targets(gen *Generator, want [][]float32) []target {
	out := make([]target, g.clients)
	for c := range out {
		if g.front == nil {
			out[c] = &inProcTarget{srv: g.ref, gen: gen, want: want}
		} else {
			out[c] = newHTTPTarget(g.front.URL, g.model, gen, want)
		}
	}
	return out
}

// serving runs one of the three request-serving workloads.
func (r *run) serving() error {
	g, setupS, err := r.setup()
	if err != nil {
		return err
	}
	defer g.close()
	r.logf("set-up %.1fs (pipeline %.1fs)", setupS, g.deployS)

	if r.gen, err = NewGenerator(r.opt.Seed, genInputs, g.art.InputLen()); err != nil {
		return err
	}
	// The expected bits of every request, from the single-process server
	// answering one request at a time.
	want := make([][]float32, genInputs)
	for i := range want {
		rep, err := g.ref.Predict(context.Background(), r.gen.Inputs[i], r.gen.Seeds[i])
		if err != nil {
			return fmt.Errorf("reference output %d: %w", i, err)
		}
		want[i] = rep.Output
	}
	if err := r.gate(g); err != nil {
		return err
	}

	targets := g.targets(r.gen, want)
	defer func() {
		for _, t := range targets {
			t.close()
		}
	}()
	runLoad(targets, r.gen, r.opt.warmup(), 1, 1, nil, nil)

	// One-second slices: the figure reported for a run is the median over
	// its slices, and on a shared host interference comes in bursts of a
	// second or a few, which many short slices outvote and few long ones
	// average in. (Shorter than a second, and a slice of vgg_batched holds
	// so few 16-request batches that its rate moves in 5% steps.) A slice
	// the host stole CPU time from is measured but not counted, and the load
	// runs up to three quarters as long again to replace it. Traced runs
	// record spans in every second pair of slices (U T T U ...), so the run
	// carries its own estimate of what tracing costs.
	n := max(4, int(r.opt.Seconds+0.5))
	per := time.Duration(r.opt.Seconds / float64(n) * float64(time.Second))
	w := window{before: r.serveStats(g), mem0: readMem()}
	l := runLoad(targets, r.gen, per, n, n+3*n/4, r.tr, func(i int) bool { return i%4 == 1 || i%4 == 2 })
	w.after, w.mem1 = r.serveStats(g), readMem()
	if g.cluster != nil {
		w.cluster = g.cluster.Stats()
	}
	for _, s := range l.slices {
		w.ops, w.wall = w.ops+len(s.samples), w.wall+s.wall
		if s.traced {
			w.traced = append(w.traced, s)
		} else {
			w.plain = append(w.plain, s)
		}
	}
	var steal []float64
	for _, s := range l.slices {
		steal = append(steal, s.steal)
	}
	w.plain, w.traced = steady(w.plain), steady(w.traced)
	r.noteSteal("slices", steal, len(w.plain)+len(w.traced))
	r.res.Attempted, r.res.Failed = l.count()
	if r.res.Attempted == 0 {
		return fmt.Errorf("no request completed in %.1fs", r.opt.Seconds)
	}

	if !r.opt.Trace {
		var qps, p50, cpu []float64
		for _, s := range w.plain {
			qps = append(qps, s.qps())
			p50 = append(p50, Percentile(pooled([]slice{s}, latMs), 0.5))
			cpu = append(cpu, s.cpuMsPerOp())
		}
		r.logf("slice qps: %.0f", qps)
		r.logf("slice p50_ms: %.3f", p50)
		r.logf("slice cpu_ms_per_op: %.3f", cpu)
		r.logf("steal %% of all %d slices: %.1f", len(l.slices), scaled(steal, 100))
		m := r.res.Metrics
		m.set("qps", Median(qps))
		m.set("p50_ms", Median(p50))
		m.set("cpu_ms_per_op", Median(cpu))
		m.set("setup_s", setupS)
		return nil
	}
	return r.servingLayers(g, want, w)
}

// window is everything read during and right around the measured load,
// before any probe disturbs the servers' own latency rings.
type window struct {
	plain, traced []slice       // the slices that count: those the host left alone
	ops           int           // completed in any slice, counted or not:
	wall          time.Duration // what the counters around the window cover
	before, after ServeStats
	mem0, mem1    memReading
	cluster       ClusterStats
}

// serveStats sums the serving counters of whatever schedulers the
// workload's requests pass through.
func (r *run) serveStats(g *rig) ServeStats {
	if g.cluster != nil {
		return g.cluster.StageStats()
	}
	return g.ref.Stats()
}

// gate is the bit-identity check: the fixed probe must return the same
// float32 bits alone, inside a full batch, over HTTP and through the
// cluster — whichever of those the workload's stack has.
func (r *run) gate(g *rig) error {
	ctx := context.Background()
	alone, err := g.ref.Predict(ctx, r.gen.Inputs[0], ProbeSeed)
	if err != nil {
		return fmt.Errorf("probe alone: %w", err)
	}
	crc := FloatsCRC(alone.Output)
	r.notef("probe %s seed %d: crc32 %08x (alone, batch %d)", g.model, r.opt.Seed, crc, alone.Batch)
	if r.opt.Trace {
		name := "eden.probe_crc32_lenet"
		if g.model == "VGG-16" {
			name = "eden.probe_crc32_vgg"
		}
		r.res.Metrics.set(name, float64(crc))
	}

	if g.cluster == nil {
		batched, err := probeInBatch(g.ref, r.gen)
		if err != nil {
			return fmt.Errorf("probe in batch: %w", err)
		}
		switch {
		case batched.Batch < 2:
			r.fail("probe never shared a batch, so the batched path is unchecked")
		case !BitsEqual(batched.Output, alone.Output):
			r.fail("probe in a batch of %d: crc32 %08x differs from alone", batched.Batch, FloatsCRC(batched.Output))
		default:
			r.notef("probe in a batch of %d: identical bits", batched.Batch)
		}
	}
	if g.front != nil {
		body, err := r.gen.ProbeBody()
		if err != nil {
			return err
		}
		t := newHTTPTarget(g.front.URL, g.model, r.gen, nil)
		defer t.close()
		rep, err := t.post(body)
		via := "HTTP"
		if g.cluster != nil {
			via = "the K=2 cluster"
		}
		switch {
		case err != nil:
			r.fail("probe over %s: %v", via, err)
		case !BitsEqual(rep.pr.Output, alone.Output):
			r.fail("probe over %s: crc32 %08x differs from alone", via, FloatsCRC(rep.pr.Output))
		default:
			r.notef("probe over %s: identical bits", via)
		}
		if r.opt.Trace {
			r.res.Metrics.set("servehttp.req_bytes", float64(len(body)))
			r.res.Metrics.set("servehttp.resp_bytes", float64(rep.rawLen))
		}
	}
	return nil
}

// probeInBatch sends the probe with enough companions to fill a batch,
// behind one request that keeps the dispatcher busy while they queue, and
// repeats until the scheduler really did put the probe in a full batch
// (the reply says how large its batch was).
func probeInBatch(srv *Server, gen *Generator) (Reply, error) {
	full := srv.MaxBatch()
	var best Reply
	for attempt := 0; attempt < 200 && best.Batch < full; attempt++ {
		replies := make([]Reply, full+1)
		errs := make([]error, full+1)
		var wg sync.WaitGroup
		send := func(slot, input int, seed uint64) {
			defer wg.Done()
			replies[slot], errs[slot] = srv.Predict(context.Background(), gen.Inputs[input], seed)
		}
		wg.Add(full + 1)
		go send(full, 1, gen.Seeds[1])
		go send(0, 0, ProbeSeed)
		for i := 1; i < full; i++ {
			go send(i, i, gen.Seeds[i])
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return Reply{}, err
			}
		}
		if replies[0].Batch > best.Batch {
			best = replies[0]
		}
	}
	return best, nil
}

// pipeline runs the lenet_pipeline workload: eden.Deploy, repeatedly.
func (r *run) pipeline() error {
	const model = "LeNet"
	t0 := time.Now()
	if err := TrainModel(model); err != nil {
		return err
	}
	// The first flow is set-up: it yields the reference artifact every
	// measured repeat must reproduce byte for byte.
	ref, err := Deploy(model)
	if err != nil {
		return err
	}
	setupS := time.Since(t0).Seconds()
	refBytes, err := ref.Encode()
	if err != nil {
		return err
	}
	refCRC := crc32.ChecksumIEEE(refBytes)
	r.notef("artifact %s: %d bytes, crc32 %08x, tolerable BER %.6g", model, len(refBytes), refCRC, ref.Facts().TolerableBER)
	r.logf("set-up %.1fs", setupS)

	// Each eden.Deploy is one operation and, for host steal, one interval:
	// the window lasts until undisturbed operations add up to --seconds, or
	// three quarters as long again.
	type op struct {
		lat, wall float64 // the call alone; with its artifact check
		cpu       time.Duration
	}
	var ops []op
	var steal []float64
	var clean float64
	mem0, start := readMem(), time.Now()
	more := func() bool {
		if r.res.Attempted >= 64 {
			return false
		}
		return len(ops) == 0 || (!r.opt.Trace && clean < r.opt.Seconds && time.Since(start).Seconds() < 1.75*r.opt.Seconds)
	}
	for more() {
		t, cpu0, steal0 := time.Now(), cpuTime(), hostSteal()
		art, err := Deploy(model)
		d := time.Since(t).Seconds()
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
			r.notef("FAIL: deploy %d: %v", r.res.Attempted, err)
			continue
		}
		got, err := art.Encode()
		if err != nil {
			return err
		}
		if crc := crc32.ChecksumIEEE(got); crc != refCRC || len(got) != len(refBytes) {
			r.res.Failed++
			r.notef("FAIL: deploy %d produced crc32 %08x, want %08x", r.res.Attempted, crc, refCRC)
		}
		wall := time.Since(t)
		ops = append(ops, op{lat: d, wall: wall.Seconds(), cpu: cpuTime() - cpu0})
		steal = append(steal, stealShare(hostSteal()-steal0, wall))
		if steal[len(steal)-1] <= stealLimit {
			clean += wall.Seconds()
		}
	}
	mem1 := readMem()
	if len(ops) == 0 {
		return fmt.Errorf("no pipeline run completed")
	}
	if r.res.Failed == 0 {
		r.notef("%d pipeline repeats: artifacts byte-identical", len(ops))
	}
	var lat []float64
	var wall float64
	var cpu time.Duration
	counted := undisturbed(steal)
	for _, i := range counted {
		lat, wall, cpu = append(lat, ops[i].lat), wall+ops[i].wall, cpu+ops[i].cpu
	}
	r.noteSteal("pipeline runs", steal, len(counted))
	if !r.opt.Trace {
		// As on the serving workloads, qps is completions over wall time
		// (artifact checks included) and p50_ms the median operation: two
		// readings of the same calls, not one twice.
		r.logf("pipeline s: %.3f, steal %%: %.1f", lat, scaled(steal, 100))
		m := r.res.Metrics
		m.set("qps", float64(len(lat))/wall)
		m.set("p50_ms", 1000*Median(lat))
		m.set("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(len(lat)))
		m.set("setup_s", setupS)
		return nil
	}
	r.processMetrics(mem0, mem1, len(ops))
	if err := r.pipelineLayers(ref, refBytes, Median(lat)); err != nil {
		return err
	}
	gen, err := NewGenerator(r.opt.Seed, genInputs, ref.InputLen())
	if err != nil {
		return err
	}
	r.gen = gen
	if err := r.modelLayers(ref, nil); err != nil {
		return err
	}
	// The pipeline workload serves nothing; stand the artifact up once so
	// its probe fingerprint is on record next to the artifact's.
	srv, err := Serve(ref)
	if err != nil {
		return err
	}
	defer srv.Close()
	rep, err := srv.Predict(context.Background(), gen.Inputs[0], ProbeSeed)
	if err != nil {
		return err
	}
	r.res.Metrics.set("eden.probe_crc32_lenet", float64(FloatsCRC(rep.Output)))
	r.notef("probe %s seed %d: crc32 %08x", model, r.opt.Seed, FloatsCRC(rep.Output))
	return nil
}
