package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// DispatcherConfig wires a Dispatcher to its stage replicas.
type DispatcherConfig struct {
	// Model is the served model's name — the path component clients use.
	Model string
	// Stages[k] lists the base URLs (e.g. "http://10.0.0.5:8081") of the
	// replicas serving stage k. Every stage needs at least one replica.
	Stages [][]string
	// HealthInterval is the membership poll period (default 1s): each
	// replica's /v1/healthz decides whether it is in rotation, so a
	// draining replica falls out within one interval.
	HealthInterval time.Duration
	// Timeout bounds one stage hop (default 30s).
	Timeout time.Duration
	// Client optionally overrides the HTTP client (tests inject loopback
	// transports); Timeout still applies per hop via request contexts.
	Client *http.Client
}

func (c DispatcherConfig) withDefaults() DispatcherConfig {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// replica is one stage server in the rotation. healthy is flipped by the
// membership poller and cleared inline on transport errors, so a dead
// replica stops receiving traffic immediately rather than at the next poll.
type replica struct {
	url     string
	healthy atomic.Bool
}

// stagePool is the replica set of one pipeline stage with a round-robin
// cursor.
type stagePool struct {
	index    int
	replicas []*replica
	rr       atomic.Uint64
	// inDims/outDims are the stage's boundary shapes, discovered from the
	// stage's own Info at startup; outDims bounds the decode of its reply.
	inDims  tensor.Shape
	outDims tensor.Shape
}

// pick returns the pool's healthy replicas starting at the round-robin
// cursor, so the caller can fail over in rotation order.
func (p *stagePool) pick() []*replica {
	n := len(p.replicas)
	start := int(p.rr.Add(1)-1) % n
	out := make([]*replica, 0, n)
	for i := 0; i < n; i++ {
		r := p.replicas[(start+i)%n]
		if r.healthy.Load() {
			out = append(out, r)
		}
	}
	return out
}

// Dispatcher fronts a stage pipeline: it speaks the standard JSON predict
// API to clients and streams binary activation frames stage-to-stage.
// Each client request runs in its own handler goroutine, so while stage 2
// computes request A, stage 1 is already computing request B — per-stage
// in-flight pipelining falls out of the concurrency model, and each
// stage's own continuous-batching scheduler batches whatever lands on it.
type Dispatcher struct {
	cfg    DispatcherConfig
	client *http.Client
	stages []*stagePool
	task   string
	info   serve.Info // assembled front-facing model info

	draining atomic.Bool
	failures atomic.Uint64
	// stats holds the end-to-end request counts, QPS window and latency
	// ring, each request recorded as a batch of one.
	stats *serve.Stats

	quit chan struct{}
	wg   sync.WaitGroup
}

// NewDispatcher connects to the stage replicas, discovers the pipeline's
// geometry from their Info endpoints (validating stage indices, counts and
// boundary chaining), and starts the membership poller. Stages must be
// registered before the dispatcher starts; discovery retries each stage
// briefly to ride out start-up races.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	cfg = cfg.withDefaults()
	if cfg.Model == "" {
		return nil, fmt.Errorf("cluster: dispatcher needs a model name")
	}
	if len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("cluster: dispatcher needs at least one stage")
	}
	d := &Dispatcher{
		cfg:    cfg,
		client: cfg.Client,
		quit:   make(chan struct{}),
		stats:  serve.NewStats(1),
	}
	if d.client == nil {
		d.client = &http.Client{}
	}
	K := len(cfg.Stages)
	for k, urls := range cfg.Stages {
		if len(urls) == 0 {
			return nil, fmt.Errorf("cluster: stage %d has no replicas", k)
		}
		pool := &stagePool{index: k}
		for _, u := range urls {
			r := &replica{url: u}
			r.healthy.Store(true) // optimistic until the first poll
			pool.replicas = append(pool.replicas, r)
		}
		info, err := d.discoverStage(pool)
		if err != nil {
			return nil, err
		}
		if info.Stage == nil {
			return nil, fmt.Errorf("cluster: %s serves %q as a whole model, not a stage", urls[0], cfg.Model)
		}
		if info.Stage.Index != k || info.Stage.Count != K {
			return nil, fmt.Errorf("cluster: %s reports stage %d/%d, expected %d/%d",
				urls[0], info.Stage.Index, info.Stage.Count, k, K)
		}
		pool.inDims = info.Stage.InDims
		pool.outDims = info.Stage.OutDims
		if k == 0 {
			d.task = info.Task
			d.info = info
			d.info.Stage = nil // the front end presents a whole model
		}
		if k > 0 && !d.stages[k-1].outDims.Equal(pool.inDims) {
			return nil, fmt.Errorf("cluster: stage %d input %v does not chain from stage %d output %v",
				k, pool.inDims, k-1, d.stages[k-1].outDims)
		}
		d.stages = append(d.stages, pool)
	}
	// The front end reports the final boundary's size as the output.
	d.info.OutputLen = d.stages[K-1].outDims[1:].Size()

	d.wg.Add(1)
	go d.pollHealth()
	return d, nil
}

// discoverStage fetches the stage's model Info from the first replica that
// answers, retrying briefly to ride out start-up ordering.
func (d *Dispatcher) discoverStage(pool *stagePool) (serve.Info, error) {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		for _, r := range pool.replicas {
			info, err := d.fetchInfo(r.url)
			if err == nil {
				return info, nil
			}
			lastErr = err
		}
		time.Sleep(250 * time.Millisecond)
	}
	return serve.Info{}, fmt.Errorf("cluster: stage %d unreachable: %w", pool.index, lastErr)
}

func (d *Dispatcher) fetchInfo(base string) (serve.Info, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/models/"+d.cfg.Model, nil)
	if err != nil {
		return serve.Info{}, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return serve.Info{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Info{}, fmt.Errorf("cluster: %s: status %d", req.URL, resp.StatusCode)
	}
	var detail serve.ModelDetail
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&detail); err != nil {
		return serve.Info{}, err
	}
	return detail.Info, nil
}

// pollHealth keeps every replica's rotation flag in sync with its
// /v1/healthz: 200 puts it (back) in rotation, anything else — draining,
// closing, unreachable — takes it out.
func (d *Dispatcher) pollHealth() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			for _, pool := range d.stages {
				for _, r := range pool.replicas {
					r.healthy.Store(d.probe(r.url))
				}
			}
		case <-d.quit:
			return
		}
	}
}

// probe runs one health check. Its timeout is deliberately independent of
// the poll cadence: a fast HealthInterval is a freshness knob, and tying
// the probe deadline to it would declare a replica dead merely for
// answering slower than the polling rate (e.g. while busy computing),
// flapping the rotation under load.
func (d *Dispatcher) probe(base string) bool {
	timeout := 2 * d.cfg.HealthInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	if timeout > d.cfg.Timeout {
		timeout = d.cfg.Timeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// BeginDrain flips the dispatcher's own health to draining, so an upstream
// balancer takes the front end out of rotation while in-flight requests
// complete.
func (d *Dispatcher) BeginDrain() {
	d.draining.Store(true)
}

// Close stops the membership poller.
func (d *Dispatcher) Close() {
	select {
	case <-d.quit:
	default:
		close(d.quit)
	}
	d.wg.Wait()
}

// hopError is a stage hop failure that already carries the HTTP status and
// body the stage produced, for pass-through to the client.
type hopError struct {
	status int
	body   []byte
	header http.Header
}

func (e *hopError) Error() string {
	return fmt.Sprintf("stage returned %d: %s", e.status, bytes.TrimSpace(e.body))
}

// forward runs one activation through one stage, failing over across the
// stage's healthy replicas in rotation order. Transport errors mark the
// replica unhealthy and try the next; HTTP-level rejections (shed,
// deadline, drain) are returned as hopError for pass-through — the stage
// made a decision, failing over would double-spend the request elsewhere.
func (d *Dispatcher) forward(ctx context.Context, pool *stagePool, x *tensor.Tensor, seed uint64, deadline time.Time) (*tensor.Tensor, error) {
	var frame bytes.Buffer
	if err := serve.EncodeActivation(&frame, x, seed); err != nil {
		return nil, err
	}
	maxElems := pool.outDims.Size()
	replicas := pool.pick()
	if len(replicas) == 0 {
		// Everything is marked down — likely a transient blip (a missed
		// probe, an inline transport error) rather than a dead fleet. Try
		// every replica anyway: a request that succeeds is strictly better
		// than a reflexive 502, and a truly dead stage fails identically.
		replicas = pool.replicas
	}
	var lastErr error
	for _, r := range replicas {
		hctx, cancel := context.WithTimeout(ctx, d.cfg.Timeout)
		req, err := http.NewRequestWithContext(hctx, http.MethodPost,
			r.url+"/v1/models/"+d.cfg.Model+"/infer", bytes.NewReader(frame.Bytes()))
		if err != nil {
			cancel()
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if !deadline.IsZero() {
			ms := time.Until(deadline).Milliseconds()
			if ms <= 0 {
				cancel()
				return nil, &hopError{status: http.StatusGatewayTimeout,
					body: []byte(`{"error":"deadline exceeded before dispatch"}`)}
			}
			req.Header.Set("X-Deadline-Ms", fmt.Sprintf("%d", ms))
		}
		resp, err := d.client.Do(req)
		if err != nil {
			cancel()
			// Transport failure: this replica is gone until the poller says
			// otherwise; fail over.
			r.healthy.Store(false)
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
			_ = resp.Body.Close()
			cancel()
			return nil, &hopError{status: resp.StatusCode, body: body, header: resp.Header}
		}
		out, _, err := serve.DecodeActivation(resp.Body, maxElems)
		_ = resp.Body.Close()
		cancel()
		if err != nil {
			r.healthy.Store(false)
			lastErr = err
			continue
		}
		return out, nil
	}
	return nil, fmt.Errorf("cluster: stage %d: all replicas failed: %w", pool.index, lastErr)
}

// Predict runs one request through the full pipeline and returns the final
// activation. It is the programmatic path behind the HTTP handler.
func (d *Dispatcher) Predict(ctx context.Context, input []float32, seed uint64, deadline time.Time) ([]float32, error) {
	first := d.stages[0]
	if want := first.inDims.Size(); len(input) != want {
		return nil, fmt.Errorf("cluster: input length %d, want %d", len(input), want)
	}
	x := tensor.FromSlice(append([]float32(nil), input...), first.inDims...)
	start := time.Now()
	var err error
	for _, pool := range d.stages {
		x, err = d.forward(ctx, pool, x, seed, deadline)
		if err != nil {
			d.failures.Add(1)
			return nil, err
		}
	}
	lat := time.Since(start)
	d.stats.Record(1, lat, []time.Duration{lat})
	return x.Data, nil
}

// Snapshot is the dispatcher's serving view: end-to-end request stats plus
// the per-stage rotation state.
type Snapshot struct {
	Requests uint64  `json:"requests"`
	Failures uint64  `json:"failures"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	// Stages[k] reports stage k's healthy replica count out of its total.
	Stages []StageRotation `json:"stages"`
}

// StageRotation is one stage's membership state.
type StageRotation struct {
	Index    int `json:"index"`
	Healthy  int `json:"healthy"`
	Replicas int `json:"replicas"`
}

// Stats returns the dispatcher's current snapshot.
func (d *Dispatcher) Stats() Snapshot {
	s := d.stats.Snapshot()
	snap := Snapshot{Requests: s.Requests, Failures: d.failures.Load(), QPS: s.QPS, P50Ms: s.P50Ms, P99Ms: s.P99Ms}
	for _, pool := range d.stages {
		healthy := 0
		for _, r := range pool.replicas {
			if r.healthy.Load() {
				healthy++
			}
		}
		snap.Stages = append(snap.Stages, StageRotation{
			Index: pool.index, Healthy: healthy, Replicas: len(pool.replicas),
		})
	}
	return snap
}
