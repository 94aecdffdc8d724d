package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Endpoint is an http.Server on a loopback port of the kernel's choosing.
type Endpoint struct {
	URL  string
	hs   *http.Server
	done chan struct{}
}

// Listen serves h on 127.0.0.1:0.
func Listen(h http.Handler) (*Endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{URL: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(ep.done)
		_ = ep.hs.Serve(ln) // always returns ErrServerClosed after Close
	}()
	return ep, nil
}

// Close shuts the listener and its connections and waits for Serve to
// return.
func (ep *Endpoint) Close() {
	_ = ep.hs.Close() // best effort: the listener is going away either way
	<-ep.done
}

// sample is one completed operation as the load generator saw it.
type sample struct {
	lat    time.Duration // client-observed, send to verified reply
	server time.Duration // the reply's own latency figure (0 when it has none)
	decode time.Duration // time the client spent decoding the reply
	ok     bool
	done   time.Time // when the client had the verified reply
}

// target is something a closed-loop client can send request i to. Each
// client owns one target, so implementations need no locking.
type target interface {
	do(i int, tr *Tracer, req int64) sample
	close()
}

// inProcTarget calls Model.Predict directly: no sockets, no encoding.
type inProcTarget struct {
	srv  *Server
	gen  *Generator
	want [][]float32
}

func (t *inProcTarget) do(i int, tr *Tracer, req int64) sample {
	t0 := time.Now()
	rep, err := t.srv.Predict(context.Background(), t.gen.Inputs[i], t.gen.Seeds[i])
	t1 := time.Now()
	s := sample{lat: t1.Sub(t0), server: rep.Latency, done: t1}
	s.ok = err == nil && BitsEqual(rep.Output, t.want[i])
	if tr != nil {
		root := tr.Add("client.request", 0, req, t0, t1)
		call := tr.Add("serve.predict", root, req, t0, t1)
		addServerSpan(tr, call, req, t0, t1, rep.Latency)
	}
	return s
}

func (t *inProcTarget) close() {}

// addServerSpan records the synthetic serve.queue_compute child: the
// server says how long enqueue-to-result took but not when, so the span is
// centred in its parent.
func addServerSpan(tr *Tracer, parent int, req int64, start, end time.Time, server time.Duration) {
	if server <= 0 {
		return
	}
	slack := end.Sub(start) - server
	if slack < 0 {
		slack, server = 0, end.Sub(start)
	}
	s := start.Add(slack / 2)
	tr.Add("serve.queue_compute", parent, req, s, s.Add(server))
}

// httpTarget is one keep-alive HTTP client: one connection, reused.
type httpTarget struct {
	url    string
	client *http.Client
	gen    *Generator
	want   [][]float32
}

func newHTTPTarget(base, model string, gen *Generator, want [][]float32) *httpTarget {
	tp := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &httpTarget{
		url:    base + "/v1/models/" + model + "/predict",
		client: &http.Client{Transport: tp, Timeout: 30 * time.Second},
		gen:    gen, want: want,
	}
}

// httpReply is one decoded predict reply with the client's timestamps.
type httpReply struct {
	pr                      PredictResponse
	rawLen                  int
	sent, received, decoded time.Time
}

// post sends one predict body and decodes the reply.
func (t *httpTarget) post(body []byte) (rep httpReply, err error) {
	rep.sent = time.Now()
	resp, err := t.client.Post(t.url, "application/json", bytes.NewReader(body))
	if err != nil {
		rep.received, rep.decoded = rep.sent, rep.sent
		return rep, err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to lose
	rep.received = time.Now()
	rep.decoded = rep.received
	rep.rawLen = len(raw)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	err = json.Unmarshal(raw, &rep.pr)
	rep.decoded = time.Now()
	return rep, err
}

func (t *httpTarget) do(i int, tr *Tracer, req int64) sample {
	rep, err := t.post(t.gen.Bodies[i])
	s := sample{
		lat: rep.decoded.Sub(rep.sent), decode: rep.decoded.Sub(rep.received), done: rep.decoded,
		server: time.Duration(rep.pr.LatencyMs * float64(time.Millisecond)),
	}
	s.ok = err == nil && BitsEqual(rep.pr.Output, t.want[i])
	if tr != nil {
		root := tr.Add("client.request", 0, req, rep.sent, rep.decoded)
		rt := tr.Add("servehttp.roundtrip", root, req, rep.sent, rep.received)
		addServerSpan(tr, rt, req, rep.sent, rep.received, s.server)
		tr.Add("client.decode", root, req, rep.received, rep.decoded)
	}
	return s
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stealLimit is the share of an interval's CPU capacity the hypervisor may
// withhold before the interval counts as disturbed. On the shared 2-vCPU
// host an undisturbed second reads 0 to 1.5 %; a neighbour's burst reads 5 to
// 50 % and cuts the measured rates by as much (cmd/bench/README.md).
const stealLimit = 0.02

// parseSteal reads the steal column of /proc/stat's first line, "cpu user
// nice system idle iowait irq softirq steal ...": the time, summed over the
// CPUs and in ticks of 10 ms, that the guest wanted to run and the host ran
// someone else.
func parseSteal(stat string) (time.Duration, bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * 10 * time.Millisecond, true
}

// hostSteal is the CPU time the host has withheld from this guest so far.
// It is the one thing the benchmark reads outside its checkout, and only to
// tell which intervals the host disturbed; where the kernel does not report
// it, it reads 0 and nothing counts as disturbed.
func hostSteal() time.Duration {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	d, _ := parseSteal(string(buf))
	return d
}

// stealShare is the stolen part of an interval's CPU capacity.
func stealShare(stolen, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(stolen) / (float64(wall) * float64(runtime.NumCPU()))
}

// undisturbed returns the indexes of the intervals whose steal share is
// within stealLimit — or of all of them, when that would leave fewer than a
// quarter (or than two): a run inside one long burst reports what it saw
// rather than a figure from one or two intervals.
func undisturbed(steal []float64) []int {
	var clean, all []int
	for i, s := range steal {
		all = append(all, i)
		if s <= stealLimit {
			clean = append(clean, i)
		}
	}
	if len(clean) < max(2, len(steal)/4) {
		return all
	}
	return clean
}

// slice is one interval of a closed-loop load: the requests that completed
// in it, how long it was, what CPU time the process spent during it and
// what share of the CPUs' time the host withheld.
type slice struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration
	steal   float64
	traced  bool
}

func (s slice) qps() float64 { return float64(len(s.samples)) / s.wall.Seconds() }

func (s slice) cpuMsPerOp() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return float64(s.cpu) / float64(time.Millisecond) / float64(len(s.samples))
}

// steady returns the slices the host left alone (see undisturbed).
func steady(slices []slice) []slice {
	steal := make([]float64, len(slices))
	for i, s := range slices {
		steal[i] = s.steal
	}
	var out []slice
	for _, i := range undisturbed(steal) {
		out = append(out, slices[i])
	}
	return out
}

// load is the outcome of one closed-loop run.
type load struct {
	slices []slice
	// tail holds the requests still in flight when the last slice ended;
	// they are verified and counted but belong to no slice.
	tail []sample
}

// count returns how many requests the load attempted and how many failed.
func (l load) count() (attempted, failed int) {
	all := [][]sample{l.tail}
	for _, s := range l.slices {
		all = append(all, s.samples)
	}
	for _, samples := range all {
		attempted += len(samples)
		for _, x := range samples {
			if !x.ok {
				failed++
			}
		}
	}
	return attempted, failed
}

// runLoad drives every target in its own goroutine through back-to-back
// slices of length per, until n of them were undisturbed by the host or
// maxN have run. Each client sends its next request only when the previous
// reply has been verified (a closed loop), and the clients never pause
// between slices: a slice is an interval of the clock, and a request belongs
// to the slice it completes in. Slice i records spans when tr is set and
// traced(i) says so.
func runLoad(targets []target, gen *Generator, per time.Duration, n, maxN int, tr *Tracer, traced func(i int) bool) load {
	type mark struct {
		at    time.Time
		cpu   time.Duration
		steal time.Duration
	}
	marks := make([]mark, 1, maxN+1)
	perClient := make([][]sample, len(targets))
	var wg sync.WaitGroup
	var stop atomic.Bool
	t0 := time.Now()
	marks[0] = mark{t0, cpuTime(), hostSteal()}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i, clean := 1, 0; i <= maxN && clean < n; i++ {
			time.Sleep(time.Until(t0.Add(time.Duration(i) * per)))
			m := mark{time.Now(), cpuTime(), hostSteal()}
			if stealShare(m.steal-marks[i-1].steal, m.at.Sub(marks[i-1].at)) <= stealLimit {
				clean++
			}
			marks = append(marks, m)
		}
	}()
	for c, t := range targets {
		wg.Add(1)
		go func(c int, t target) {
			defer wg.Done()
			var mine []sample
			for r := 0; !stop.Load(); r++ {
				i := int(time.Since(t0) / per)
				var str *Tracer
				if tr != nil && traced(i) {
					str = tr
				}
				mine = append(mine, t.do(gen.Pick(c, r), str, int64(i+1)<<48+int64(c)<<32+int64(r)))
			}
			perClient[c] = mine
		}(c, t)
	}
	wg.Wait()

	l := load{slices: make([]slice, len(marks)-1)}
	for i := range l.slices {
		wall := marks[i+1].at.Sub(marks[i].at)
		l.slices[i] = slice{
			wall: wall, cpu: marks[i+1].cpu - marks[i].cpu,
			steal:  stealShare(marks[i+1].steal-marks[i].steal, wall),
			traced: tr != nil && traced(i),
		}
	}
	for _, mine := range perClient {
		i := 0
		for _, x := range mine { // one client's completions are in time order
			for i < len(l.slices) && !x.done.Before(marks[i+1].at) {
				i++
			}
			if i == len(l.slices) {
				l.tail = append(l.tail, x)
			} else {
				l.slices[i].samples = append(l.slices[i].samples, x)
			}
		}
	}
	return l
}
