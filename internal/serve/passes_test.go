package serve

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/eden"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// gate holds fused passes inside their first IFM hook until the test lets
// them go, so a test decides — with no sleeps — how many passes are in
// flight while it looks at the scheduler.
type gate struct {
	entered chan uint64              // the seed of every request reaching its first hook
	release map[uint64]chan struct{} // closed to let that seed's request on; other seeds are not held
	seen    map[uint64]bool          // entered, as far as the test has read it
}

func newGate(held ...uint64) *gate {
	g := &gate{entered: make(chan uint64, 64), release: map[uint64]chan struct{}{}, seen: map[uint64]bool{}}
	for _, seed := range held {
		g.release[seed] = make(chan struct{})
	}
	return g
}

// await blocks until the request with this seed is inside its first hook.
func (g *gate) await(t *testing.T, seed uint64) {
	t.Helper()
	for !g.seen[seed] {
		select {
		case s := <-g.entered:
			g.seen[s] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("request with seed %d never reached compute", seed)
		}
	}
}

// hasEntered reports, without waiting, whether the request with this seed
// has reached its first hook yet.
func (g *gate) hasEntered(seed uint64) bool {
	for {
		select {
		case s := <-g.entered:
			g.seen[s] = true
		default:
			return g.seen[seed]
		}
	}
}

func (g *gate) open(seeds ...uint64) {
	for _, seed := range seeds {
		close(g.release[seed])
	}
}

// gatedCloner is a corruptor whose clones stop at the gate before their
// first layer and corrupt exactly as the wrapped one otherwise.
type gatedCloner struct {
	eden.Cloner
	g    *gate
	seed uint64
}

func (c *gatedCloner) CloneCorruptor(pass uint64) eden.Cloner {
	return &gatedCloner{c.Cloner.CloneCorruptor(pass), c.g, pass}
}

func (c *gatedCloner) Reset(pass uint64) {
	c.Cloner.Reset(pass)
	c.seed = pass
}

func (c *gatedCloner) IFMHookInPlace() dnn.IFMHook {
	inner := c.Cloner.IFMHookInPlace()
	return func(i int, l dnn.Layer, x *tensor.Tensor) *tensor.Tensor {
		if i == 0 {
			c.g.entered <- c.seed
			if ch, held := c.g.release[c.seed]; held {
				<-ch
			}
		}
		return inner(i, l, x)
	}
}

// gatedModel is a stuffedModel of dep whose passes stop at a gate holding
// the given seeds; the scheduler is not running yet. The gate wraps a fresh
// corruptor laid over a copy of the network as newModel laid the served
// one, so its clones draw exactly the errors the model's own pool would.
func gatedModel(t *testing.T, s *Server, dep *eden.Deployment, held ...uint64) (*Model, *gate) {
	t.Helper()
	m := stuffedModel(t, s, dep)
	net, err := dep.CloneNet()
	if err != nil {
		t.Fatal(err)
	}
	corr := dep.NewCorruptor()
	corr.CorruptWeights(net)
	g := newGate(held...)
	m.pool = eden.NewClonePool(&gatedCloner{Cloner: corr, g: g})
	return m, g
}

// livePending is a request as submit would enqueue it, kept by the test so
// it can read the outcome itself.
func livePending(m *Model, in []float32, seed uint64, deadline time.Time) *pending {
	x := tensor.FromSlice(append([]float32(nil), in...), m.inDims...)
	return &pending{x: x, seed: seed, enq: time.Now(), deadline: deadline, ctx: context.Background(), out: make(chan outcome, 1)}
}

// outcomeOf waits for a request's outcome.
func outcomeOf(t *testing.T, p *pending) outcome {
	t.Helper()
	select {
	case o := <-p.out:
		return o
	case <-time.After(5 * time.Second):
		t.Fatalf("request with seed %d never resolved", p.seed)
		return outcome{}
	}
}

// predictHeld serves dep on s with the inputs (seed 1000+i) meeting in
// batches: inputs[0] is queued first, and its pass — a batch of one — is
// held at a gate until every other request is queued behind it, so the
// next batches carry as many as MaxBatch allows. The queue and the forming
// batch must have room for all of them. It returns the outputs in input
// order and the model's stats.
func predictHeld(t *testing.T, s *Server, dep *eden.Deployment, inputs [][]float32) ([][]float32, Snapshot) {
	t.Helper()
	m, g := gatedModel(t, s, dep, 1000)
	m.start()
	ps := make([]*pending, len(inputs))
	for i, in := range inputs {
		ps[i] = livePending(m, in, 1000+uint64(i), time.Time{})
		m.queue <- ps[i]
		if i == 0 {
			g.await(t, 1000)
		}
	}
	g.open(1000)
	outs := make([][]float32, len(inputs))
	for i, p := range ps {
		o := outcomeOf(t, p)
		if o.err != nil {
			t.Fatalf("seed %d: %v", p.seed, o.err)
		}
		outs[i] = o.res.Output
	}
	return outs, m.Stats()
}

// TestCloseWithTwoPassesInFlight runs the collector shell on real passes
// held in place: requests already expired or abandoned are swept before
// anything computes, and counted; full batches open passes up to the worker
// count, and a member of the full batch waiting behind them expires on its
// timer; Close then lets both running passes finish and deliver, fails the
// batch in hand and the queue with ErrClosed, and leaves no scheduler
// goroutine behind. The stats and /metrics report the two passes.
func TestCloseWithTwoPassesInFlight(t *testing.T) {
	setWorkers(t, 2)
	inputs := testInputs(t, "LeNet", 7) // load the model before counting goroutines
	before := runtime.NumGoroutine()
	s := New(Config{MaxBatch: 2, QueueDepth: 16})
	m, g := gatedModel(t, s, uniformDeployment(t, "LeNet", quant.FP32, 0), 1, 2, 3, 4)
	expired := livePending(m, inputs[0], 8, time.Now().Add(-time.Millisecond))
	abandoned := livePending(m, inputs[0], 9, time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	abandoned.ctx = ctx
	m.queue <- expired
	m.queue <- abandoned
	ps := make([]*pending, len(inputs))
	for i, in := range inputs {
		deadline := time.Time{}
		if i == 5 {
			deadline = time.Now().Add(100 * time.Millisecond)
		}
		ps[i] = livePending(m, in, uint64(i+1), deadline)
		m.queue <- ps[i]
	}
	m.start()
	g.await(t, 1)
	g.await(t, 3)
	// [1 2] and [3 4] are computing, [5 6] is full with no pass free, 7 is
	// queued. 6 expires while it waits, when nothing but the collector's
	// timer wakes it, and 7 takes its place.
	for _, p := range []*pending{expired, abandoned, ps[5]} {
		if o := outcomeOf(t, p); o.err != ErrExpired {
			t.Fatalf("seed %d, expired or abandoned in the queue: %v, want ErrExpired", p.seed, o.err)
		}
	}
	if st := m.Stats(); st.InFlight != 2 || st.PeakInFlight != 2 || st.Batches != 0 || st.Expired != 3 {
		t.Fatalf("two held passes, three expiries: %+v", st)
	}
	s.Close()
	for _, p := range []*pending{ps[4], ps[6]} {
		if o := outcomeOf(t, p); o.err != ErrClosed {
			t.Fatalf("seed %d, not yet computing at Close: %v, want ErrClosed", p.seed, o.err)
		}
	}
	g.open(1, 2, 3, 4)
	for _, p := range ps[:4] {
		if o := outcomeOf(t, p); o.err != nil || len(o.res.Output) == 0 || o.res.BatchSize != 2 {
			t.Fatalf("seed %d, computing at Close: %d outputs in a batch of %d, error %v", p.seed, len(o.res.Output), o.res.BatchSize, o.err)
		}
	}
	st := m.Stats()
	if st.Requests != 4 || st.Batches != 2 || st.Expired != 3 || st.InFlight != 0 || st.PeakInFlight != 2 {
		t.Fatalf("after Close: %+v", st)
	}
	// Both passes were held over the same stretch: summed they are twice
	// the window, as time with a pass in flight they are within it.
	if st.BusyFrac <= 0 || st.BusyFrac > 1 {
		t.Fatalf("busy fraction %v with two overlapping passes, want (0, 1]", st.BusyFrac)
	}
	var text bytes.Buffer
	WriteMetrics(&text, []*Model{m})
	for _, want := range []string{
		"# TYPE serve_passes_in_flight gauge",
		`serve_passes_in_flight{model="LeNet",stat="now"} 0`,
		`serve_passes_in_flight{model="LeNet",stat="peak"} 2`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text.String())
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
	}
}

// TestPredictComputingAtCloseDelivers: Close lets in-flight batches finish,
// so a caller whose request is computing when Close comes gets its result,
// not ErrClosed, although it sees the shutdown before the pass ends.
func TestPredictComputingAtCloseDelivers(t *testing.T) {
	s := New(Config{MaxBatch: 2, QueueDepth: 8})
	m, g := gatedModel(t, s, uniformDeployment(t, "LeNet", quant.FP32, 0), 1)
	in := testInputs(t, "LeNet", 1)[0]
	type reply struct {
		res Result
		err error
	}
	done := make(chan reply, 1)
	go func() {
		res, err := m.Predict(context.Background(), in, 1)
		done <- reply{res, err}
	}()
	m.start()
	g.await(t, 1)
	s.Close()
	// The pass is held, so any reply now is the shutdown answering for it.
	select {
	case r := <-done:
		t.Fatalf("replied while its pass was computing: error %v", r.err)
	case <-time.After(200 * time.Millisecond):
	}
	g.open(1)
	select {
	case r := <-done:
		if r.err != nil || len(r.res.Output) == 0 {
			t.Fatalf("computing at Close: %d outputs, error %v", len(r.res.Output), r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Predict never returned")
	}
}

// TestDrainEstimateSharesOverlap: two passes that ran side by side drained
// their requests in the time of one, and the estimate behind Retry-After
// says so instead of adding their durations.
func TestDrainEstimateSharesOverlap(t *testing.T) {
	st := NewStats(16)
	st.begin()
	st.begin()
	st.Record(16, 50*time.Millisecond, nil)
	alone := st.serviceEstimate()
	st.Record(16, 50*time.Millisecond, nil) // ended with the first: added nothing to the clock
	if both := st.serviceEstimate(); both >= alone {
		t.Fatalf("drain estimate %v after a pass that overlapped the last one entirely, was %v", both, alone)
	}
	if snap := st.Snapshot(); snap.BusyFrac > 1 || snap.PeakInFlight != 2 || snap.InFlight != 0 {
		t.Fatalf("snapshot %+v", snap)
	}
}
