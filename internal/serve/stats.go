package serve

import (
	"sort"
	"sync"
	"time"
)

// latRing is how many recent request latencies the quantile estimator
// keeps. 4096 samples bound the memory per model while keeping p99
// meaningful under sustained load.
const latRing = 4096

// Stats accumulates per-model serving statistics: request/batch counts, a
// batch-size histogram, busy time, passes in flight, and a ring of recent
// request latencies for quantile estimation.
type Stats struct {
	mu        sync.Mutex
	first     time.Time // start of the first dispatch, anchors the QPS window
	last      time.Time // most recent dispatch end
	requests  uint64
	batches   uint64
	shed      uint64 // admissions refused on a full queue
	expired   uint64 // queued requests dropped: deadline passed or caller gone
	inflight  int    // passes between begin and Record
	peak      int    // most passes ever in flight at once
	busySince time.Time
	busy      time.Duration // closed spans with at least one pass in flight
	svc       time.Duration // EWMA of wall-clock drain time per request
	hist      []uint64      // hist[k] = batches of size k; index 0 unused
	lat       [latRing]time.Duration
	idx       int
	filled    int
}

// NewStats returns statistics for a scheduler dispatching batches of up to
// maxBatch requests.
func NewStats(maxBatch int) *Stats {
	return &Stats{hist: make([]uint64, maxBatch+1)}
}

// begin opens a pass — one batch entering compute — and returns its start
// time; the Record that logs the batch closes it.
func (s *Stats) begin() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if s.first.IsZero() {
		s.first = now
	}
	if s.inflight == 0 {
		s.busySince = now
	}
	s.inflight++
	s.peak = max(s.peak, s.inflight)
	return now
}

// Record logs one dispatched batch — its size, its compute duration and the
// per-request latencies — and closes the pass begin opened for it, if one
// was (the cluster dispatcher records bare requests).
func (s *Stats) Record(batchSize int, busy time.Duration, lats []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	start := now.Add(-busy)
	if s.first.IsZero() {
		s.first = start
	}
	if batchSize > 0 {
		// Smoothed wall-clock drain time per request feeds the
		// Retry-After estimate handed to shed callers (EWMA, α = 1/8):
		// what this batch added to the clock beyond the previous
		// completion, so passes that overlap share the time they share.
		if s.last.After(start) {
			start = s.last
		}
		perReq := now.Sub(start) / time.Duration(batchSize)
		if s.svc == 0 {
			s.svc = perReq
		} else {
			s.svc += (perReq - s.svc) / 8
		}
	}
	s.last = now
	s.batches++
	s.requests += uint64(batchSize)
	if s.inflight > 0 {
		s.inflight--
		if s.inflight == 0 {
			s.busy += now.Sub(s.busySince)
		}
	}
	if batchSize < len(s.hist) {
		s.hist[batchSize]++
	} else {
		// Defensive: dispatches never exceed MaxBatch, but a resized
		// config would land here rather than panic.
		s.hist[len(s.hist)-1]++
	}
	for _, l := range lats {
		s.lat[s.idx] = l
		s.idx = (s.idx + 1) % latRing
		if s.filled < latRing {
			s.filled++
		}
	}
}

// recordShed counts one admission refused on a full queue.
func (s *Stats) recordShed() {
	s.mu.Lock()
	s.shed++
	s.mu.Unlock()
}

// recordExpired counts one queued request dropped before dispatch.
func (s *Stats) recordExpired() {
	s.mu.Lock()
	s.expired++
	s.mu.Unlock()
}

// serviceEstimate returns the smoothed per-request drain time, or 0 before
// the first dispatch.
func (s *Stats) serviceEstimate() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.svc
}

// Snapshot is a consistent copy of the statistics for reporting.
type Snapshot struct {
	Requests uint64 `json:"requests"`
	Batches  uint64 `json:"batches"`
	// Shed counts admissions refused on a full queue (HTTP 429s); Expired
	// counts queued requests dropped before dispatch because their deadline
	// passed or their caller cancelled. Neither group consumed compute.
	Shed      uint64  `json:"shed"`
	Expired   uint64  `json:"expired"`
	MeanBatch float64 `json:"mean_batch"`
	// QPS is requests divided by the window from the first request to the
	// latest dispatch.
	QPS float64 `json:"qps"`
	// BusyFrac is the fraction of that window with at least one pass in
	// flight; overlapping passes count once, so it never exceeds 1.
	BusyFrac float64 `json:"busy_frac"`
	// InFlight is how many passes are computing right now, PeakInFlight
	// the most that ever were at once.
	InFlight     int     `json:"in_flight"`
	PeakInFlight int     `json:"peak_in_flight"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	// ServiceMsEst is the smoothed wall-clock time to drain one request,
	// backing the Retry-After estimate.
	ServiceMsEst float64 `json:"service_ms_est"`
	// QueueDepth/QueueCap are the admission queue's instantaneous
	// occupancy and capacity (filled in by Model.Stats).
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// BatchHist[k] is how many batches carried exactly k requests
	// (index 0 unused).
	BatchHist []uint64 `json:"batch_histogram"`
}

// Snapshot returns the current statistics.
func (s *Stats) Snapshot() Snapshot {
	s.mu.Lock()
	snap := Snapshot{
		Requests:     s.requests,
		Batches:      s.batches,
		Shed:         s.shed,
		Expired:      s.expired,
		InFlight:     s.inflight,
		PeakInFlight: s.peak,
		ServiceMsEst: float64(s.svc) / float64(time.Millisecond),
		BatchHist:    append([]uint64(nil), s.hist...),
	}
	window := s.last.Sub(s.first)
	busy := s.busy
	if s.inflight > 0 && s.last.After(s.busySince) {
		busy += s.last.Sub(s.busySince) // the open span, as far as the window reaches
	}
	lats := append([]time.Duration(nil), s.lat[:s.filled]...)
	s.mu.Unlock()

	if snap.Batches > 0 {
		snap.MeanBatch = float64(snap.Requests) / float64(snap.Batches)
	}
	if window > 0 {
		snap.QPS = float64(snap.Requests) / window.Seconds()
		snap.BusyFrac = busy.Seconds() / window.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		snap.P50Ms = float64(lats[quantileIdx(len(lats), 0.50)]) / float64(time.Millisecond)
		snap.P99Ms = float64(lats[quantileIdx(len(lats), 0.99)]) / float64(time.Millisecond)
	}
	return snap
}

// quantileIdx returns the index of the q-quantile in a sorted sample of
// length n (nearest-rank method).
func quantileIdx(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
