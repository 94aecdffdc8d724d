package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// stuffedModel registers a LeNet model whose scheduler goroutines are NOT
// running (newModel without commit), published into the registry by hand,
// so tests can hold the admission queue in an exact state.
func stuffedModel(t *testing.T, s *Server) *Model {
	t.Helper()
	m, err := s.newModel(uniformDeployment(t, "LeNet", quant.FP32, 0))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.models[m.name] = m
	s.mu.Unlock()
	return m
}

// fakePending fabricates a queued request that will never be read back.
func fakePending(deadline time.Time) *pending {
	return &pending{seed: 1, enq: time.Now(), deadline: deadline, out: make(chan outcome, 1)}
}

// TestQueueFullSheds pins the admission-control contract on an exactly
// full queue: Predict sheds with ErrQueueFull instead of blocking, the
// shed is counted in stats, and the HTTP layer surfaces it as 429 with a
// positive Retry-After.
func TestQueueFullSheds(t *testing.T) {
	s := New(Config{MaxBatch: 2, QueueDepth: 4})
	defer s.Close()
	m := stuffedModel(t, s)
	for i := 0; i < cap(m.queue); i++ {
		m.queue <- fakePending(time.Time{})
	}

	in := testInputs(t, "LeNet", 1)[0]
	if _, err := m.Predict(context.Background(), in, 7); err != ErrQueueFull {
		t.Fatalf("predict on full queue: %v, want ErrQueueFull", err)
	}
	st := m.Stats()
	if st.Shed != 1 {
		t.Fatalf("stats shed %d, want 1", st.Shed)
	}
	if st.QueueDepth != st.QueueCap || st.QueueCap != 4 {
		t.Fatalf("queue occupancy %d/%d, want 4/4", st.QueueDepth, st.QueueCap)
	}
	if ra := m.RetryAfter(); ra < time.Second || ra > time.Minute {
		t.Fatalf("retry-after %v outside [1s, 60s]", ra)
	}

	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	body, _ := json.Marshal(PredictRequest{Input: in, Seed: 7})
	resp, err := http.Post(srv.URL+"/v1/models/LeNet/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After header %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	var payload struct {
		Error       string `json:"error"`
		RetryAfterS int    `json:"retry_after_s"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Error == "" || payload.RetryAfterS != secs {
		t.Fatalf("429 body %+v, header %d", payload, secs)
	}
	if got := m.Stats().Shed; got != 2 {
		t.Fatalf("stats shed %d after HTTP shed, want 2", got)
	}
}

// TestQueueFullUnderLoad hammers a deliberately tiny queue with far more
// concurrent clients than it can hold: the scheduler must shed rather than
// deadlock, every non-shed request must succeed, and the stats must
// account for both populations exactly.
func TestQueueFullUnderLoad(t *testing.T) {
	setWorkers(t, 1)
	s := New(Config{MaxBatch: 2, QueueDepth: 2})
	defer s.Close()
	m := deployUniform(t, s, "LeNet", quant.Int8, 1e-3)
	inputs := testInputs(t, "LeNet", 4)
	const clients, perClient = 32, 10
	var served, shed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				_, err := m.Predict(context.Background(), inputs[(c+r)%len(inputs)], uint64(c*100+r))
				switch err {
				case nil:
					served.Add(1)
				case ErrQueueFull:
					shed.Add(1)
				default:
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if served.Load()+shed.Load() != clients*perClient {
		t.Fatalf("served %d + shed %d != %d issued", served.Load(), shed.Load(), clients*perClient)
	}
	if shed.Load() == 0 {
		t.Fatal("320 concurrent requests against a depth-2 queue shed nothing")
	}
	st := m.Stats()
	if st.Requests != served.Load() || st.Shed != shed.Load() {
		t.Fatalf("stats requests=%d shed=%d, clients saw served=%d shed=%d",
			st.Requests, st.Shed, served.Load(), shed.Load())
	}
}

// TestDeadlineExpiresBeforeDispatch pins the expiry contract exactly: the
// collector must drop already-expired queued requests with ErrExpired
// before dispatch — they consume no compute and never reach stats.record —
// while fresh requests in the same queue are served normally.
func TestDeadlineExpiresBeforeDispatch(t *testing.T) {
	setWorkers(t, 1)
	s := New(Config{MaxBatch: 4, QueueDepth: 8})
	defer s.Close()
	m := stuffedModel(t, s)

	in := testInputs(t, "LeNet", 1)[0]
	x := tensor.FromSlice(append([]float32(nil), in...), 1, m.net.InC, m.net.InH, m.net.InW)
	expired1 := fakePending(time.Now().Add(-time.Millisecond))
	expired2 := fakePending(time.Now().Add(-time.Hour))
	fresh := &pending{x: x, seed: 9, enq: time.Now(), deadline: time.Now().Add(time.Hour), out: make(chan outcome, 1)}
	m.queue <- expired1
	m.queue <- fresh
	m.queue <- expired2

	// Start the scheduler only now, with the queue in a known state.
	m.start()

	for _, exp := range []*pending{expired1, expired2} {
		select {
		case o := <-exp.out:
			if o.err != ErrExpired {
				t.Fatalf("expired request outcome %v, want ErrExpired", o.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("expired request never resolved")
		}
	}
	select {
	case o := <-fresh.out:
		if o.err != nil {
			t.Fatalf("fresh request failed: %v", o.err)
		}
		if len(o.res.Output) == 0 {
			t.Fatal("fresh request served an empty output")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fresh request never served")
	}
	st := m.Stats()
	if st.Expired != 2 {
		t.Fatalf("stats expired %d, want 2", st.Expired)
	}
	if st.Requests != 1 {
		t.Fatalf("stats requests %d, want 1 (expired work must not dispatch)", st.Requests)
	}
}

// TestHTTPDeadline504 covers the HTTP face of expiry: a predict whose
// deadline_ms elapses while it is still queued answers 504, not 200. The
// model's scheduler is deliberately not running, so the request sits in
// the queue until its deadline fires — no timing assumptions about how
// fast the backlog drains.
func TestHTTPDeadline504(t *testing.T) {
	s := New(Config{MaxBatch: 1, QueueDepth: 8})
	defer s.Close()
	stuffedModel(t, s)
	in := testInputs(t, "LeNet", 1)[0]

	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	body, _ := json.Marshal(PredictRequest{Input: in, Seed: 7, DeadlineMs: 1})
	resp, err := http.Post(srv.URL+"/v1/models/LeNet/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestDrainUnderLoad closes the server while sustained concurrent load is
// in flight: every outstanding Predict must resolve promptly (a result,
// ErrQueueFull, or ErrClosed — nothing hangs, nothing panics), and new
// work after Close fails with ErrClosed.
func TestDrainUnderLoad(t *testing.T) {
	setWorkers(t, 2)
	s := New(Config{MaxBatch: 4, QueueDepth: 8})
	m := deployUniform(t, s, "LeNet", quant.Int8, 1e-3)
	inputs := testInputs(t, "LeNet", 4)
	const clients = 8
	var closedSeen atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; ; r++ {
				_, err := m.Predict(context.Background(), inputs[(c+r)%len(inputs)], uint64(c*1000+r))
				switch err {
				case nil, ErrQueueFull:
				case ErrClosed:
					closedSeen.Add(1)
					return
				default:
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	time.Sleep(50 * time.Millisecond)
	s.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("clients still blocked 5s after Close; drain is stuck")
	}
	if closedSeen.Load() != clients {
		t.Fatalf("%d of %d clients saw ErrClosed", closedSeen.Load(), clients)
	}
	if _, err := m.Predict(context.Background(), inputs[0], 1); err != ErrClosed {
		t.Fatalf("predict after drained close: %v, want ErrClosed", err)
	}
}

// TestContinuousSchedulerDeterminism is the cross-regime byte-identity
// pin for the continuous scheduler: the same (input, seed) pairs must
// produce identical bits whether served unbatched and serially, through the
// work-conserving default (MaxLatency 0, batches form only under
// concurrent pressure) or through an explicit fill window — at every worker
// count, which is also how many passes may overlap, from one closed-loop
// caller (never a second request in the system) to four batches' worth
// (full batches computing side by side).
func TestContinuousSchedulerDeterminism(t *testing.T) {
	inputs := testInputs(t, "LeNet", 64)
	overlapped := false
	run := func(cfg Config, workers, callers int) [][]float32 {
		setWorkers(t, workers)
		s := New(cfg)
		defer s.Close()
		m := deployUniform(t, s, "LeNet", quant.Int8, 5e-3)
		outs := predictFrom(t, m, inputs, callers)
		overlapped = overlapped || m.Stats().PeakInFlight > 1
		return outs
	}
	want := run(Config{MaxBatch: 1}, 1, 1)
	if overlapped {
		t.Fatal("the serial reference ran two passes at once")
	}
	check := func(name string, got [][]float32) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: sample %d bits differ from unbatched serial serving", name, i)
			}
		}
	}
	for _, maxBatch := range []int{16, 4} {
		for _, workers := range []int{1, 2, 3, 8} {
			for _, callers := range []int{1, 2, 33, 64} {
				check(fmt.Sprintf("b%d-w%d-c%d", maxBatch, workers, callers),
					run(Config{MaxBatch: maxBatch}, workers, callers))
			}
		}
	}
	check("fill-window-b8-w2", run(Config{MaxBatch: 8, MaxLatency: 10 * time.Millisecond}, 2, 64))
	check("tiny-queue-b4-w2", run(Config{MaxBatch: 4, QueueDepth: 2}, 2, 64))
	if !overlapped {
		t.Fatal("no configuration ever had two passes in flight; the sweep proves nothing about overlap")
	}
}
