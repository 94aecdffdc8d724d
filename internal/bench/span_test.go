package bench

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	tr := NewTracer()
	at := func(ns int64) time.Time { return tr.t0.Add(time.Duration(ns)) }
	root := tr.Add("request", 0, 7, at(0), at(100))
	a := tr.Add("a", root, 7, at(10), at(50))
	tr.Add("a.inner", a, 7, at(20), at(30))
	tr.Add("b", root, 7, at(40), at(70))      // overlaps a by 10
	tr.Add("c", root, 7, at(90), at(130))     // sticks out of the parent by 30
	tr.Add("a.late", a, 7, at(45), at(48))    // second child of a
	tr.Add("request", 0, 8, at(200), at(260)) // a second request with no children

	got := SelfTimes(tr.Spans())
	// request 7: children cover [10,70) and [90,100) = 70 of 100; request 8: 0 of 60.
	if r := got["request"]; r.Count != 2 || r.TotalNs != 160 || r.SelfNs != 30+60 {
		t.Errorf("request totals = %+v, want count 2, total 160, self 90", r)
	}
	if a := got["a"]; a.TotalNs != 40 || a.SelfNs != 40-10-3 {
		t.Errorf("a totals = %+v, want total 40, self 27", a)
	}
	if c := got["c"]; c.SelfNs != 40 {
		t.Errorf("c self = %d, want 40", c.SelfNs)
	}
	if cov := Coverage(tr.Spans(), "request"); cov != 70.0/160 {
		t.Errorf("coverage = %v, want %v", cov, 70.0/160)
	}
}

func TestTracerNilIsOffAndReserveFinish(t *testing.T) {
	var off *Tracer
	if id := off.Add("x", 0, 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
	off.Finish(off.Reserve("x", 0, 0, time.Now()), time.Now())
	if off.Spans() != nil {
		t.Error("nil tracer holds spans")
	}

	tr := NewTracer()
	id := tr.Reserve("deploy", 0, 0, tr.t0)
	tr.Add("phase", id, 0, tr.t0, tr.t0.Add(5))
	tr.Finish(id, tr.t0.Add(9))
	spans := tr.Spans()
	if spans[0].EndNs != 9 || spans[1].Parent != id {
		t.Errorf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if buf, err := os.ReadFile(path); err != nil || len(buf) == 0 {
		t.Errorf("trace file: %v, %d bytes", err, len(buf))
	}
}
