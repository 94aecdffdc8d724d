package bench

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval recorded by the benchmark around a call into
// a layer of the program. Parent is the ID of the span that caused it (0
// for a root) and Req groups the spans of one request.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Tracer collects spans in memory; they are written out once, when the run
// ends. A nil *Tracer is tracing switched off: every method is a no-op, so
// the measured paths carry no branches beyond the nil check.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts a trace whose timestamps are relative to now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Add records a finished span and returns its ID for use as a parent.
func (t *Tracer) Add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// Reserve allocates a span ID before the interval's end is known, so that
// children recorded meanwhile can name it; Finish fills it in.
func (t *Tracer) Reserve(name string, parent int, req int64, start time.Time) int {
	return t.Add(name, parent, req, start, start)
}

// Finish sets the end of a span obtained from Reserve.
func (t *Tracer) Finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the trace as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	buf, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// SpanTotals aggregates a trace by span name.
type SpanTotals struct {
	Count   int
	TotalNs int64
	// SelfNs is the total minus the part of each interval its child spans
	// cover: the time spent in the layer itself.
	SelfNs int64
}

// covered returns how much of [lo, hi) the children cover. Children may
// overlap each other and stick out of the parent; the union is clipped.
func covered(lo, hi int64, children []Span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].StartNs < children[j].StartNs })
	var sum int64
	cursor := lo
	for _, c := range children {
		s, e := max(c.StartNs, cursor), min(c.EndNs, hi)
		if e > s {
			sum += e - s
			cursor = e
		}
	}
	return sum
}

// SelfTimes computes per-name totals and self times over a trace.
func SelfTimes(spans []Span) map[string]SpanTotals {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]SpanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		dur := s.EndNs - s.StartNs
		t.Count++
		t.TotalNs += dur
		t.SelfNs += dur - covered(s.StartNs, s.EndNs, kids[s.ID])
		out[s.Name] = t
	}
	return out
}

// Coverage is the share of the named spans' total time that their children
// account for; 1 − Coverage is time the trace cannot attribute.
func Coverage(spans []Span, name string) float64 {
	t := SelfTimes(spans)[name]
	if t.TotalNs == 0 {
		return 0
	}
	return 1 - float64(t.SelfNs)/float64(t.TotalNs)
}
