package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"
)

// repeat calls f for about d (at least three times) and returns the
// ascending per-call times in seconds. Probes report the median call, so a
// descheduled iteration does not move the figure.
func repeat(d time.Duration, f func()) []float64 {
	var out []float64
	for start := time.Now(); len(out) < 3 || time.Since(start) < d; {
		t := time.Now()
		f()
		out = append(out, time.Since(t).Seconds())
	}
	return sorted(out)
}

// medianCall is the median time of one call of f, in seconds.
func medianCall(d time.Duration, f func()) float64 { return Percentile(repeat(d, f), 0.5) }

// memReading is the part of runtime.MemStats the benchmark differences.
type memReading struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() memReading {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memReading{m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

// processMetrics reports what the measured window cost the Go runtime.
func (r *run) processMetrics(m0, m1 memReading, ops int) {
	m := r.res.Metrics
	m.set("process.allocs_per_op", float64(m1.mallocs-m0.mallocs)/float64(ops))
	m.set("process.alloc_kb_per_op", float64(m1.bytes-m0.bytes)/1024/float64(ops))
	m.set("process.gc_cycles", float64(m1.gcs-m0.gcs))
	m.set("process.gc_pause_ms", float64(m1.pauseNs-m0.pauseNs)/1e6)
	m.set("process.peak_rss_mb", peakRSSMB())
	m.set("process.num_cpu", float64(runtime.NumCPU()))
	m.set("process.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	m.set("process.workers", float64(ProgramDefaults().Workers))
}

// pooled gathers a field of every sample of the slices, ascending.
func pooled(slices []slice, field func(sample) float64) []float64 {
	var out []float64
	for _, s := range slices {
		for _, x := range s.samples {
			out = append(out, field(x))
		}
	}
	return sorted(out)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func latMs(x sample) float64     { return ms(x.lat) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// servingLayers turns a traced serving run into the per-layer metrics.
func (r *run) servingLayers(g *rig, want [][]float32, w window) error {
	m := r.res.Metrics
	plain, traced, before, after := w.plain, w.traced, w.before, w.after
	r.processMetrics(w.mem0, w.mem1, w.ops)

	// client.*: the traced slices, as the load generator saw them.
	lat := pooled(traced, latMs)
	var tq, pq []float64
	for _, s := range traced {
		tq = append(tq, s.qps())
	}
	for _, s := range plain {
		pq = append(pq, s.qps())
	}
	m.set("client.qps", Median(tq))
	m.set("client.n", float64(len(lat)))
	m.set("client.p50_ms", Percentile(lat, 0.50))
	for _, p := range []struct {
		name string
		q    float64
	}{{"client.p90_ms", 0.90}, {"client.p99_ms", 0.99}} {
		if Supported(len(lat), p.q) {
			m.set(p.name, Percentile(lat, p.q))
		}
	}
	m.set("client.decode_us", Percentile(pooled(traced, func(x sample) float64 { return us(x.decode) }), 0.5))
	if g.front != nil {
		// Bodies are encoded before the run; this is what that cost per
		// request, for whoever wants to add it back.
		body := PredictRequest{Input: r.gen.Inputs[0], Seed: r.gen.Seeds[0]}
		m.set("client.encode_us", 1e6*medianCall(r.opt.probe()/3, func() { _, _ = json.Marshal(body) }))
	}
	m.set("trace.overhead_share", Median(pq)/Median(tq)-1)
	m.set("trace.request_coverage", Coverage(r.tr.Spans(), "client.request"))

	// serve.*: the schedulers' own counters over the measured window.
	if batches := after.Batches - before.Batches; batches > 0 {
		m.set("serve.batches", float64(batches))
		m.set("serve.mean_batch", float64(after.Requests-before.Requests)/float64(batches))
	}
	m.set("serve.busy_frac", (after.BusySeconds-before.BusySeconds)/w.wall.Seconds())
	m.set("serve.shed", float64(after.Shed-before.Shed))
	m.set("serve.expired", float64(after.Expired-before.Expired))
	m.set("serve.queue_compute_p50_ms", Percentile(pooled(traced, func(x sample) float64 { return ms(x.server) }), 0.5))
	overhead := pooled(traced, func(x sample) float64 { return ms(x.lat - x.server) })
	if g.front == nil {
		m.set("serve.submit_overhead_p50_us", 1000*Percentile(overhead, 0.5))
	} else {
		m.set("servehttp.overhead_p50_ms", Percentile(overhead, 0.5))
		// Model.Predict called directly, one request at a time: what the
		// scheduler hand-off adds on top of the latency it reports itself.
		var direct []float64
		for i := 0; i < 200; i++ {
			t := time.Now()
			rep, err := g.ref.Predict(context.Background(), r.gen.Inputs[i%genInputs], r.gen.Seeds[i%genInputs])
			if err != nil {
				return err
			}
			direct = append(direct, us(time.Since(t)-rep.Latency))
		}
		m.set("serve.submit_overhead_p50_us", Percentile(sorted(direct), 0.5))

		// The same request through the front door's handler with no socket.
		path := "/v1/models/" + g.model + "/predict"
		var status int
		handler := 1000 * medianCall(r.opt.probe(), func() {
			rec := httptest.NewRecorder()
			g.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(r.gen.Bodies[0])))
			status = rec.Code
		})
		if status != http.StatusOK {
			return fmt.Errorf("handler probe: status %d", status)
		}
		m.set("servehttp.handler_p50_ms", handler)
		m.set("servehttp.transport_p50_ms", Percentile(lat, 0.5)-handler)
	}

	if g.cluster != nil {
		if err := r.clusterLayers(g, want, w.cluster, Percentile(lat, 0.5)); err != nil {
			return err
		}
	}
	var wireDims []int
	if g.cluster != nil {
		wireDims = g.cluster.Plan.BoundaryDims
	}
	if err := r.modelLayers(g.art, wireDims); err != nil {
		return err
	}
	if g.model == "VGG-16" {
		// How much of the raw fused kernel rate survives the scheduler.
		if raw := m["dnn.vgg_fused_b16_sps"].Value; raw > 0 {
			m.set("serve.sched_efficiency", m["client.qps"].Value/raw)
		}
	}
	enc, err := g.art.Encode()
	if err != nil {
		return err
	}
	return r.pipelineLayers(g.art, enc, g.deployS)
}

// clusterLayers reports the cluster's own view and what the hop costs
// against the same artifact served from one process in the same run.
func (r *run) clusterLayers(g *rig, want [][]float32, st ClusterStats, clusterP50 float64) error {
	m := r.res.Metrics
	var stages float64
	for i, p50 := range st.StageP50Ms {
		if i < 2 {
			m.set(fmt.Sprintf("cluster.stage%d_p50_ms", i), p50)
		}
		stages += p50
	}
	m.set("cluster.dispatcher_p50_ms", st.DispatcherP50Ms)
	m.set("cluster.forward_overhead_ms", st.DispatcherP50Ms-stages)
	m.set("cluster.failures", float64(st.Failures))
	m.set("cluster.plan_ms", g.cluster.Plan.PlanMs)
	m.set("cluster.cut_layer", float64(g.cluster.Plan.CutLayer))
	m.set("cluster.boundary_bytes", float64(g.cluster.Plan.BoundaryBytes))

	single, err := Listen(g.ref.Handler())
	if err != nil {
		return err
	}
	defer single.Close()
	targets := make([]target, g.clients)
	for c := range targets {
		targets[c] = newHTTPTarget(single.URL, g.model, r.gen, want)
		defer targets[c].close()
	}
	per := time.Duration(r.opt.Seconds / 4 * float64(time.Second))
	runLoad(targets, r.gen, per/4, 1, 1, nil, nil)
	l := runLoad(targets, r.gen, per, 1, 1, nil, nil)
	attempted, failed := l.count()
	r.res.Attempted += attempted
	r.res.Failed += failed
	m.set("cluster.hop_overhead_p50_ms", clusterP50-Percentile(pooled(l.slices, latMs), 0.5))
	return nil
}

// modelLayers probes the layers below the scheduler: the artifact's own
// network, the compute backends, quantization, the corruptor, and — when
// the workload crosses a stage boundary of shape wireDims — the stage wire.
func (r *run) modelLayers(art *Artifact, wireDims []int) error {
	m := r.res.Metrics
	p, err := NewNetProbe(art, r.gen.Inputs)
	if err != nil {
		return err
	}
	switch art.Model() {
	case "VGG-16":
		m.set("dnn.vgg_forward_b1_ms", 1000*medianCall(r.opt.probe(), p.ForwardB1))
		mem0 := readMem()
		fused := repeat(2*r.opt.probe(), func() { p.FusedB16(true) })
		mem1 := readMem()
		m.set("dnn.vgg_fused_b16_sps", 16/Percentile(fused, 0.5))
		m.set("dnn.allocs_per_fused_b16", float64(mem1.mallocs-mem0.mallocs)/float64(len(fused)))
		m.set("dnn.alloc_kb_per_fused_b16", float64(mem1.bytes-mem0.bytes)/1024/float64(len(fused)))
		m.set("dnn.vgg_fused_b16_clean_sps", 16/medianCall(2*r.opt.probe(), func() { p.FusedB16(false) }))
		m.set("dnn.vgg_fanout_b16_sps", 16/medianCall(2*r.opt.probe(), p.FanoutB16))

		names := p.LayerNames()
		perLayer := make([][]float64, len(names))
		repeat(2*r.opt.probe(), func() {
			p.LayersB16(func(i int, d time.Duration) { perLayer[i] = append(perLayer[i], us(d)) })
		})
		slots := map[string]float64{}
		for i, name := range names {
			slot := "other"
			for _, s := range vggLayerSlots {
				if s == name {
					slot = name
				}
			}
			slots[slot] += Median(perLayer[i])
		}
		for _, slot := range vggLayerSlots {
			m.set("dnn.vgg_layer_b16_us."+slot, slots[slot])
		}

		// One sample through Network.Forward with the artifact's hook
		// wrapped in a timer: hook calls and the layer forwards between them.
		var hook, total []float64
		fwd := r.tr.Reserve("dnn.forward", 0, 0, time.Now())
		first := true
		repeat(r.opt.probe(), func() {
			var h, all time.Duration
			p.HookedForwardB1(func(name string, start, end time.Time) {
				if strings.HasPrefix(name, "eden.ifm_hook.") {
					h += end.Sub(start)
				}
				all += end.Sub(start)
				if first {
					r.tr.Add(name, fwd, 0, start, end)
				}
			})
			if first {
				r.tr.Finish(fwd, time.Now())
				first = false
			}
			hook, total = append(hook, us(h)), append(total, us(all))
		})
		m.set("eden.ifm_hook_us_per_sample_vgg", Median(hook))
		m.set("eden.ifm_hook_share_vgg", Median(hook)/Median(total))
		m.set("eden.corrupt_weights_ms_vgg", 1000*medianCall(r.opt.probe(), p.CorruptWeights))
	case "LeNet":
		m.set("dnn.lenet_forward_b1_us", 1e6*medianCall(r.opt.probe(), p.ForwardB1))
		epoch, err := TrainEpoch("LeNet")
		if err != nil {
			return err
		}
		m.set("dnn.lenet_train_epoch_s", medianCall(r.opt.probe(), epoch))
	}
	m.set("eden.clone_get_put_ns", 1e9*medianCall(r.opt.probe()/3, p.CloneGetPut))

	for _, k := range KernelProbes() {
		t := medianCall(r.opt.probe(), k.Run)
		if k.Name == "gemm_conv2d_backward" {
			m.set("compute."+k.Name+"_ms", 1000*t)
			continue
		}
		m.set("compute."+k.Name+"_us", 1e6*t)
		if strings.HasSuffix(k.Name, "_conv2d") {
			m.set("compute."+k.Name+"_gmac_s", k.MACs/1e9/t)
			m.set("compute.conv2d_bytes_moved", k.Bytes)
		}
	}
	codecs, err := CodecProbes(wireDims)
	if err != nil {
		return err
	}
	for _, c := range codecs {
		m.set(c.Name, c.Units/1e6/medianCall(r.opt.probe()/3, c.Run))
	}
	return nil
}

// pipelineLayers rebuilds the artifact phase by phase under spans, holds
// the rebuild to the bytes eden.Deploy produced, and reports the phases,
// the artifact's codec and its exact-repeat facts. deployS is what the
// untraced eden.Deploy took, the base for the tracing overhead here.
func (r *run) pipelineLayers(art *Artifact, artBytes []byte, deployS float64) error {
	m := r.res.Metrics
	phases := map[string]float64{}
	t0 := time.Now()
	root := r.tr.Reserve("eden.deploy", 0, 0, t0)
	rebuilt, err := DeployPiecewise(art.Model(), func(name string) func() {
		start := time.Now()
		return func() {
			end := time.Now()
			phases[name] += end.Sub(start).Seconds()
			r.tr.Add(name, root, 0, start, end)
		}
	})
	if err != nil {
		return fmt.Errorf("piecewise pipeline: %w", err)
	}
	piecewiseS := time.Since(t0).Seconds()
	r.tr.Finish(root, time.Now())
	got, err := rebuilt.Encode()
	if err != nil {
		return err
	}
	crc := crc32.ChecksumIEEE(artBytes)
	if !bytes.Equal(got, artBytes) {
		r.fail("piecewise pipeline produced crc32 %08x, eden.Deploy %08x: the phase times do not describe the program", crc32.ChecksumIEEE(got), crc)
	} else {
		r.notef("piecewise pipeline reproduces the artifact: crc32 %08x", crc)
	}
	for _, name := range []string{"eden.profile_fit", "eden.coarse_char", "eden.retrain", "eden.fine_char"} {
		m.set(name+"_s", phases[name])
	}
	m.set("eden.map_partition_ms", 1000*phases["eden.map_partition"])
	m.set("eden.calibrate_ms", 1000*phases["eden.calibrate"])
	m.set("eden.pipeline_s", deployS)
	if r.opt.Workload == "lenet_pipeline" {
		m.set("trace.overhead_share", piecewiseS/deployS-1)
		m.set("trace.request_coverage", Coverage(r.tr.Spans(), "eden.deploy"))
	}

	m.set("eden.save_ms", 1000*medianCall(r.opt.probe()/3, func() { _, _ = art.Encode() }))
	m.set("eden.load_ms", 1000*medianCall(r.opt.probe()/3, func() { _, _ = DecodeArtifact(artBytes) }))
	facts := art.Facts()
	m.set("eden.artifact_bytes", float64(len(artBytes)))
	m.set("eden.artifact_crc32", float64(crc))
	m.set("eden.tolerable_ber", facts.TolerableBER)
	m.set("eden.serving_ber", facts.ServingBER)
	m.set("eden.delta_vdd", facts.DeltaVDD)
	m.set("eden.delta_trcd_ns", facts.DeltaTRCDNs)
	r.notef("artifact %s: %d bytes, crc32 %08x, tolerable BER %.6g, serving BER %.6g, dVDD %+.3f V, dtRCD %+.2f ns",
		art.Model(), len(artBytes), crc, facts.TolerableBER, facts.ServingBER, facts.DeltaVDD, facts.DeltaTRCDNs)
	return nil
}
