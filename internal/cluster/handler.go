package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// Handler exposes the dispatcher over HTTP with the same client surface as
// a standalone serve.Server — clients cannot tell a pipeline from a single
// process, which is the point:
//
//	GET  /v1/healthz                   — role "dispatcher"; 503 once draining
//	GET  /v1/models                    — the fronted model, presented whole
//	GET  /v1/models/{name}             — same, single-model detail
//	GET  /v1/stats                     — end-to-end and per-stage rotation stats
//	GET  /metrics                      — Prometheus text format
//	POST /v1/models/{name}/predict     — standard JSON predict, fanned
//	                                     through the stage pipeline
func (d *Dispatcher) Handler() http.Handler {
	// known answers 404 unless the request's {name} is the fronted model.
	known := func(w http.ResponseWriter, r *http.Request) bool {
		if name := r.PathValue("name"); name != d.cfg.Model {
			serve.WriteError(w, http.StatusNotFound, "unknown model "+name)
			return false
		}
		return true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		status, code := "ok", http.StatusOK
		if d.draining.Load() {
			status, code = "draining", http.StatusServiceUnavailable
		}
		serve.WriteJSON(w, code, serve.HealthResponse{Status: status, Models: 1, Role: serve.RoleDispatcher})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, []serve.Info{d.info})
	})
	mux.HandleFunc("GET /v1/models/{name}", func(w http.ResponseWriter, r *http.Request) {
		if known(w, r) {
			serve.WriteJSON(w, http.StatusOK, serve.ModelDetail{Info: d.info})
		}
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]Snapshot{d.cfg.Model: d.Stats()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.writeMetrics(w)
	})
	mux.HandleFunc("POST /v1/models/{name}/predict", func(w http.ResponseWriter, r *http.Request) {
		if !known(w, r) {
			return
		}
		req, deadline, ok := serve.DecodePredict(w, r, d.stages[0].inDims.Size())
		if !ok {
			return
		}
		start := time.Now()
		out, err := d.Predict(r.Context(), req.Input, req.Seed, deadline)
		if err != nil {
			var hop *hopError
			if errors.As(err, &hop) {
				// The stage already decided (shed, deadline, drain): relay
				// its status, body and Retry-After untouched.
				if ra := hop.header.Get("Retry-After"); ra != "" {
					w.Header().Set("Retry-After", ra)
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(hop.status)
				_, _ = w.Write(hop.body)
				return
			}
			serve.WriteError(w, http.StatusBadGateway, err.Error())
			return
		}
		res := serve.Result{Output: out, ArgMax: -1, BatchSize: 1, Latency: time.Since(start)}
		if d.info.Task == "classify" {
			res.ArgMax = tensor.FromSlice(out, len(out)).ArgMax()
		}
		serve.WritePrediction(w, d.cfg.Model, res)
	})
	return mux
}

// writeMetrics renders the dispatcher's stats in the Prometheus text
// format: end-to-end counters plus a per-stage healthy-replica gauge (the
// stage servers themselves expose the full serving metrics on their own
// /metrics).
func (d *Dispatcher) writeMetrics(w http.ResponseWriter) {
	snap := d.Stats()
	family := func(name, help, typ string, value any) {
		serve.MetricHead(w, name, help, typ)
		serve.MetricSample(w, name, d.cfg.Model, "", value)
	}
	family("dispatcher_requests_total", "Requests served end to end.", "counter", snap.Requests)
	family("dispatcher_failures_total", "Requests failed at some stage.", "counter", snap.Failures)
	family("dispatcher_qps", "End-to-end requests per second.", "gauge", snap.QPS)
	serve.MetricHead(w, "dispatcher_latency_seconds", "End-to-end request latency.", "summary")
	serve.MetricSample(w, "dispatcher_latency_seconds", d.cfg.Model, `quantile="0.5"`, snap.P50Ms/1e3)
	serve.MetricSample(w, "dispatcher_latency_seconds", d.cfg.Model, `quantile="0.99"`, snap.P99Ms/1e3)
	serve.MetricHead(w, "dispatcher_stage_healthy_replicas", "Healthy replicas in rotation per stage.", "gauge")
	for _, st := range snap.Stages {
		serve.MetricSample(w, "dispatcher_stage_healthy_replicas", d.cfg.Model, fmt.Sprintf(`stage="%d"`, st.Index), st.Healthy)
	}
}
