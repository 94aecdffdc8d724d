package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/tensor"
)

// PredictRequest is the JSON body of POST /v1/models/{name}/predict.
type PredictRequest struct {
	// Input is the flattened InC×InH×InW feature map.
	Input []float32 `json:"input"`
	// Seed selects the request's deterministic error stream.
	Seed uint64 `json:"seed"`
	// DeadlineMs optionally bounds how long the caller will wait. A
	// request still queued past its deadline is dropped before dispatch
	// (504) instead of consuming compute.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// PredictResponse is the JSON reply.
type PredictResponse struct {
	Model     string    `json:"model"`
	Output    []float32 `json:"output"`
	ArgMax    int       `json:"argmax"`
	BatchSize int       `json:"batch_size"`
	LatencyMs float64   `json:"latency_ms"`
}

// HealthResponse is the JSON reply of GET /v1/healthz. Role and Stage let
// balancers and humans tell shards apart: a standalone server reports
// "standalone", a pipeline stage reports "stage" plus its position and
// layer range, a cluster dispatcher reports "dispatcher".
type HealthResponse struct {
	Status string       `json:"status"`
	Models int          `json:"models"`
	Role   Role         `json:"role"`
	Stage  *StageHealth `json:"stage,omitempty"`
}

// StageHealth identifies a stage server in health probes.
type StageHealth struct {
	Index  int    `json:"index"`
	Count  int    `json:"count"`
	Layers [2]int `json:"layers"`
}

// NewHandler exposes a Server over HTTP/JSON:
//
//	GET  /v1/healthz                   — liveness/readiness probe
//	GET  /v1/models                    — deployed model inventory
//	GET  /v1/models/{name}             — one model's deployment metadata
//	GET  /v1/stats                     — per-model serving statistics
//	POST /v1/models/{name}/predict     — one prediction
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Load balancers poll this to decide whether to route traffic:
		// 200 while the server accepts work, 503 from the moment
		// BeginDrain (or Close) runs, so the balancer takes the instance
		// out of rotation while in-flight requests still complete.
		s.mu.RLock()
		status := "ok"
		if s.closed {
			status = "closing"
		} else if s.draining {
			status = "draining"
		}
		n := len(s.models)
		role := s.role
		var stage *StageHealth
		if s.stage != nil {
			stage = &StageHealth{
				Index:  s.stage.Index,
				Count:  s.stage.Count,
				Layers: [2]int{s.stage.Lo, s.stage.Hi},
			}
		}
		s.mu.RUnlock()
		code := http.StatusOK
		if status != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, HealthResponse{Status: status, Models: n, Role: role, Stage: stage})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		models := s.Models()
		infos := make([]Info, len(models))
		for i, m := range models {
			infos[i] = m.Info()
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("GET /v1/models/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		m, ok := s.Model(name)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown model "+name)
			return
		}
		writeJSON(w, http.StatusOK, m.Detail())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]Snapshot{}
		for _, m := range s.Models() {
			out[m.Name()] = m.Stats()
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /v1/models/{name}/predict", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		m, ok := s.Model(name)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown model "+name)
			return
		}
		// Bound the body before decoding: a well-formed request carries
		// InC×InH×InW JSON numbers (tens of bytes each), so the model's
		// input size plus generous slack caps it; without the limit one
		// oversized POST could exhaust the daemon's memory.
		maxBody := int64(m.inputLen)*64 + 4096
		var req PredictRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		ctx := r.Context()
		if req.DeadlineMs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
			defer cancel()
		}
		res, err := m.Predict(ctx, req.Input, req.Seed)
		if writePredictError(w, m, err) {
			return
		}
		writeJSON(w, http.StatusOK, PredictResponse{
			Model:     name,
			Output:    res.Output,
			ArgMax:    res.ArgMax,
			BatchSize: res.BatchSize,
			LatencyMs: float64(res.Latency.Microseconds()) / 1000,
		})
	})
	mux.HandleFunc("POST /v1/models/{name}/infer", func(w http.ResponseWriter, r *http.Request) {
		// The stage wire: one binary activation frame in, one out. The
		// dispatcher streams boundary activations stage-to-stage through
		// this endpoint; floats travel as exact bit patterns, so the
		// determinism contract survives the hop. A deadline rides in the
		// X-Deadline-Ms header since the body is not JSON.
		name := r.PathValue("name")
		m, ok := s.Model(name)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown model "+name)
			return
		}
		maxElems := 1
		for _, d := range m.inDims {
			maxElems *= d
		}
		maxBody := int64(4*maxElems) + 128
		x, seed, err := DecodeActivation(http.MaxBytesReader(w, r.Body, maxBody), maxElems)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad activation frame: "+err.Error())
			return
		}
		ctx := r.Context()
		if h := r.Header.Get("X-Deadline-Ms"); h != "" {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil || ms <= 0 {
				httpError(w, http.StatusBadRequest, "bad X-Deadline-Ms header")
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
		res, err := m.PredictActivation(ctx, x, seed)
		if writePredictError(w, m, err) {
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		out := tensor.FromSlice(res.Output, res.Dims...)
		_ = EncodeActivation(w, out, seed)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, s.Models())
	})
	return mux
}

// writePredictError maps a Predict/PredictActivation error onto the HTTP
// reply — 429 with Retry-After for shed admissions, 504 for deadlines, 503
// at shutdown — and reports whether it wrote one.
func writePredictError(w http.ResponseWriter, m *Model, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrQueueFull):
		// Structured shed: tell the client when capacity is likely
		// back, from queue occupancy × smoothed service time.
		ra := m.RetryAfter()
		secs := int64((ra + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":         err.Error(),
			"retry_after_s": secs,
		})
	case errors.Is(err, ErrExpired), errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
