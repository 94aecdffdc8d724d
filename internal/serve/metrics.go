package serve

import (
	"fmt"
	"io"
)

// MetricHead writes the # HELP and # TYPE lines that open a metric family
// in the Prometheus text exposition format.
func MetricHead(w io.Writer, name, help, typ string) {
	_, _ = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// MetricSample writes one sample of a family for a model. labels, when
// non-empty, are further key="value" pairs (quantile="0.5"). Integer
// values print in decimal, floats in their shortest exact form.
func MetricSample(w io.Writer, name, model, labels string, value any) {
	if labels != "" {
		labels = "," + labels
	}
	_, _ = fmt.Fprintf(w, "%s{model=%q%s} %v\n", name, model, labels, value)
}

// WriteMetrics renders the serving statistics of the given models in the
// Prometheus text exposition format (one # HELP/# TYPE block per metric,
// one sample per model), fed entirely by the existing Stats rings — no
// collection machinery of its own. Callers pass Server.Models(), which is
// name-sorted, so the output is deterministic for a given state; GET
// /metrics serves it, giving the cluster dispatcher a per-stage scrape
// target.
func WriteMetrics(w io.Writer, models []*Model) {
	snaps := make([]Snapshot, len(models))
	for i, m := range models {
		snaps[i] = m.Stats()
	}

	family := func(name, help, typ string, value func(Snapshot) any) {
		MetricHead(w, name, help, typ)
		for i, m := range models {
			MetricSample(w, name, m.Name(), "", value(snaps[i]))
		}
	}

	family("serve_requests_total", "Requests served.", "counter",
		func(s Snapshot) any { return s.Requests })
	family("serve_batches_total", "Micro-batches dispatched.", "counter",
		func(s Snapshot) any { return s.Batches })
	family("serve_shed_total", "Admissions refused on a full queue.", "counter",
		func(s Snapshot) any { return s.Shed })
	family("serve_expired_total", "Queued requests dropped before dispatch: deadline passed or caller gone.", "counter",
		func(s Snapshot) any { return s.Expired })
	family("serve_qps", "Requests per second over the serving window.", "gauge",
		func(s Snapshot) any { return s.QPS })
	family("serve_busy_fraction", "Fraction of the serving window with at least one pass in flight.", "gauge",
		func(s Snapshot) any { return s.BusyFrac })
	MetricHead(w, "serve_passes_in_flight", "Fused passes computing at once, now and at peak.", "gauge")
	for i, m := range models {
		MetricSample(w, "serve_passes_in_flight", m.Name(), `stat="now"`, snaps[i].InFlight)
		MetricSample(w, "serve_passes_in_flight", m.Name(), `stat="peak"`, snaps[i].PeakInFlight)
	}
	family("serve_mean_batch", "Mean dispatched batch size.", "gauge",
		func(s Snapshot) any { return s.MeanBatch })
	family("serve_service_ms_estimate", "Smoothed wall-clock drain time per request in milliseconds.", "gauge",
		func(s Snapshot) any { return s.ServiceMsEst })
	family("serve_queue_depth", "Admission queue occupancy.", "gauge",
		func(s Snapshot) any { return float64(s.QueueDepth) })
	family("serve_queue_capacity", "Admission queue capacity.", "gauge",
		func(s Snapshot) any { return float64(s.QueueCap) })

	// Request latency quantiles from the ring, rendered as a Prometheus
	// summary (quantile label, seconds).
	MetricHead(w, "serve_latency_seconds", "Request latency (queue wait plus compute).", "summary")
	for i, m := range models {
		MetricSample(w, "serve_latency_seconds", m.Name(), `quantile="0.5"`, snaps[i].P50Ms/1e3)
		MetricSample(w, "serve_latency_seconds", m.Name(), `quantile="0.99"`, snaps[i].P99Ms/1e3)
	}

	// Batch-size histogram with cumulative buckets, as Prometheus expects:
	// bucket le="k" counts batches of size ≤ k.
	MetricHead(w, "serve_batch_size", "Dispatched micro-batch sizes.", "histogram")
	for i, m := range models {
		cum := uint64(0)
		sum := uint64(0)
		for k := 1; k < len(snaps[i].BatchHist); k++ {
			cum += snaps[i].BatchHist[k]
			sum += uint64(k) * snaps[i].BatchHist[k]
			MetricSample(w, "serve_batch_size_bucket", m.Name(), fmt.Sprintf(`le="%d"`, k), cum)
		}
		MetricSample(w, "serve_batch_size_bucket", m.Name(), `le="+Inf"`, cum)
		MetricSample(w, "serve_batch_size_sum", m.Name(), "", sum)
		MetricSample(w, "serve_batch_size_count", m.Name(), "", cum)
	}
}
