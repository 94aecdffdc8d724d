package serve

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/eden"
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

// gatedModel is a stuffedModel whose passes stop at a gate holding the given
// seeds, plus the queue of live requests with seeds 1..n, one per input; the
// scheduler is not running yet.
func gatedModel(t *testing.T, s *Server, n int, held ...uint64) (*Model, *gate, []*pending) {
	t.Helper()
	m := stuffedModel(t, s)
	g := newGate(held...)
	m.pool = eden.NewClonePool(&gatedCloner{Cloner: m.dep.NewCorruptor(), g: g})
	ps := make([]*pending, n)
	for i, in := range testInputs(t, "LeNet", n) {
		ps[i] = livePending(m, in, uint64(i+1), time.Time{})
		m.queue <- ps[i]
	}
	return m, g, ps
}

// livePending is a request as submit would enqueue it, kept by the test so
// it can read the outcome itself.
func livePending(m *Model, in []float32, seed uint64, deadline time.Time) *pending {
	x := tensor.FromSlice(append([]float32(nil), in...), m.inDims...)
	return &pending{x: x, seed: seed, enq: time.Now(), deadline: deadline, out: make(chan outcome, 1)}
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

// TestPartialBatchWaitsForLastPass walks the hand-over rule through its
// edges with the passes held in place: full batches open passes up to the
// worker count, a partial batch behind them is handed over only when the
// last one ends — and is, so that wake-up is not lost — and its members
// expire on time while it waits.
func TestPartialBatchWaitsForLastPass(t *testing.T) {
	setWorkers(t, 2)
	s := New(Config{MaxBatch: 3, QueueDepth: 8})
	defer s.Close()
	m, g, ps := gatedModel(t, s, 7, 1, 2, 3, 4, 5, 6)
	in := testInputs(t, "LeNet", 1)[0]
	m.start()
	g.await(t, 1)
	g.await(t, 4)
	// Passes [1 2 3] and [4 5 6] are computing; [7] is partial and waits.
	expireWhileWaiting := func(seed uint64) {
		t.Helper()
		doomed := livePending(m, in, seed, time.Now().Add(20*time.Millisecond))
		m.queue <- doomed
		if o := outcomeOf(t, doomed); o.err != ErrExpired {
			t.Fatalf("request past its deadline in a waiting batch: %v, want ErrExpired", o.err)
		}
		if late := time.Since(doomed.deadline); late > time.Second {
			t.Fatalf("expired %v after its deadline", late)
		}
	}
	expireWhileWaiting(8)
	if st := m.Stats(); st.InFlight != 2 || st.PeakInFlight != 2 || st.Batches != 0 || st.Expired != 1 {
		t.Fatalf("two held passes, one expiry: %+v", st)
	}

	g.open(1, 2, 3)
	for _, p := range ps[:3] {
		if o := outcomeOf(t, p); o.err != nil || o.res.BatchSize != 3 {
			t.Fatalf("seed %d: batch of %d, error %v", p.seed, o.res.BatchSize, o.err)
		}
	}
	// One pass left. The collector learns of the other's end within
	// microseconds; a second expiry, 20 ms on, is proof it has been round
	// its loop since — and [7] must still be waiting.
	expireWhileWaiting(9)
	if g.hasEntered(7) {
		t.Fatal("a partial batch was handed over while a pass was still in flight")
	}

	g.open(4, 5, 6)
	for _, p := range ps[3:6] {
		if o := outcomeOf(t, p); o.err != nil || o.res.BatchSize != 3 {
			t.Fatalf("seed %d: batch of %d, error %v", p.seed, o.res.BatchSize, o.err)
		}
	}
	if o := outcomeOf(t, ps[6]); o.err != nil || o.res.BatchSize != 1 {
		t.Fatalf("the waiting request: batch of %d, error %v", o.res.BatchSize, o.err)
	}
	st := m.Stats()
	if st.Requests != 7 || st.Batches != 3 || st.Expired != 2 || st.InFlight != 0 || st.PeakInFlight != 2 {
		t.Fatalf("after the run: %+v", st)
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
}

// TestCloseWithTwoPassesInFlight: Close lets both running passes finish and
// deliver, fails the batch in hand and the queue with ErrClosed, and leaves
// no scheduler goroutine behind.
func TestCloseWithTwoPassesInFlight(t *testing.T) {
	setWorkers(t, 2)
	testInputs(t, "LeNet", 1) // load the model before counting goroutines
	before := runtime.NumGoroutine()
	s := New(Config{MaxBatch: 2, QueueDepth: 8})
	m, g, ps := gatedModel(t, s, 7, 1, 2, 3, 4)
	m.start()
	g.await(t, 1)
	g.await(t, 3)
	// [1 2] and [3 4] are computing, [5 6] is full with no pass free, 7 is queued.
	s.Close()
	for _, p := range ps[4:] {
		if o := outcomeOf(t, p); o.err != ErrClosed {
			t.Fatalf("seed %d, not yet computing at Close: %v, want ErrClosed", p.seed, o.err)
		}
	}
	g.open(1, 2, 3, 4)
	for _, p := range ps[:4] {
		if o := outcomeOf(t, p); o.err != nil || len(o.res.Output) == 0 {
			t.Fatalf("seed %d, computing at Close: %d outputs, error %v", p.seed, len(o.res.Output), o.err)
		}
	}
	if st := m.Stats(); st.Requests != 4 || st.InFlight != 0 {
		t.Fatalf("after Close: %+v", st)
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
	m, g, _ := gatedModel(t, s, 0, 1)
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

// TestCancelledRequestsAreNotComputed: a request whose caller has gone is
// swept before the hand-over, like one past its deadline, and counted with
// them; only the live request behind it reaches compute.
func TestCancelledRequestsAreNotComputed(t *testing.T) {
	s := New(Config{MaxBatch: 4, QueueDepth: 8})
	defer s.Close()
	m := stuffedModel(t, s)
	in := testInputs(t, "LeNet", 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	const callers = 3
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			_, err := m.Predict(ctx, in, uint64(c))
			errs <- err
		}(c)
	}
	for deadline := time.Now().Add(5 * time.Second); len(m.queue) < callers; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued", len(m.queue), callers)
		}
	}
	cancel()
	for c := 0; c < callers; c++ {
		if err := <-errs; err != context.Canceled {
			t.Fatalf("cancelled caller: %v", err)
		}
	}
	m.start()
	res, err := m.Predict(context.Background(), in, 9)
	if err != nil || res.BatchSize != 1 {
		t.Fatalf("live request behind the cancelled ones: batch of %d, error %v", res.BatchSize, err)
	}
	if st := m.Stats(); st.Requests != 1 || st.Expired != callers {
		t.Fatalf("served %d requests, dropped %d; want 1 and %d", st.Requests, st.Expired, callers)
	}
}

// TestPassesOverlapOnlyUnderFullBatches is the hand-over rule under real
// load: with one worker, or with no more callers than a batch holds, passes
// never overlap — that is the scheduler as it was — and with four batches'
// worth of callers they do, and every batch that joins a pass in flight is
// full. How full the others are depends on how fast the callers come back,
// so the test asserts the rule and no mean: it takes the dispatchers' place
// behind the collector and looks at every hand-over. One goroutine receives,
// so its count rises in hand-over order, and a pass leaves the count before
// its done token is sent, so the count never exceeds the collector's own.
func TestPassesOverlapOnlyUnderFullBatches(t *testing.T) {
	const maxBatch = 4
	inputs := testInputs(t, "LeNet", 8)
	load := func(workers, callers int) Snapshot {
		setWorkers(t, workers)
		s := New(Config{MaxBatch: maxBatch})
		defer s.Close()
		m := stuffedModel(t, s)
		go m.collect()
		go func() {
			var passes atomic.Int32
			for batch := range m.batches {
				if passes.Add(1) > 1 && len(batch) < maxBatch {
					t.Errorf("%d workers, %d callers: a batch of %d of %d was handed over while a pass was in flight", workers, callers, len(batch), maxBatch)
				}
				go func() {
					m.dispatch(batch)
					passes.Add(-1)
					m.done <- struct{}{}
				}()
			}
		}()
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < 100; r++ {
					if _, err := m.Predict(context.Background(), inputs[(c+r)%len(inputs)], uint64(c*1000+r)); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		return m.Stats()
	}
	if st := load(1, 4*maxBatch); st.PeakInFlight != 1 {
		t.Fatalf("one worker: %d passes in flight at peak, want 1", st.PeakInFlight)
	}
	for _, workers := range []int{2, 8} {
		if st := load(workers, maxBatch); st.PeakInFlight != 1 {
			t.Fatalf("%d workers, %d callers: %d passes in flight at peak, want 1", workers, maxBatch, st.PeakInFlight)
		}
		if st := load(workers, 4*maxBatch); st.PeakInFlight < 2 || st.PeakInFlight > workers {
			t.Fatalf("%d workers, %d callers: %d passes in flight at peak, want 2..%d", workers, 4*maxBatch, st.PeakInFlight, workers)
		}
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
