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
		WriteJSON(w, code, HealthResponse{Status: status, Models: n, Role: role, Stage: stage})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		models := s.Models()
		infos := make([]Info, len(models))
		for i, m := range models {
			infos[i] = m.Info()
		}
		WriteJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("GET /v1/models/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		m, ok := s.Model(name)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown model "+name)
			return
		}
		WriteJSON(w, http.StatusOK, m.Detail())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]Snapshot{}
		for _, m := range s.Models() {
			out[m.Name()] = m.Stats()
		}
		WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /v1/models/{name}/predict", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		m, ok := s.Model(name)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown model "+name)
			return
		}
		req, deadline, ok := DecodePredict(w, r, m.inputLen)
		if !ok {
			return
		}
		ctx := r.Context()
		if !deadline.IsZero() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
		res, err := m.Predict(ctx, req.Input, req.Seed)
		if writePredictError(w, m, err) {
			return
		}
		WritePrediction(w, name, res)
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
			WriteError(w, http.StatusNotFound, "unknown model "+name)
			return
		}
		maxElems := tensor.Shape(m.inDims).Size()
		maxBody := int64(4*maxElems) + 128
		x, seed, err := DecodeActivation(http.MaxBytesReader(w, r.Body, maxBody), maxElems)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad activation frame: "+err.Error())
			return
		}
		ctx := r.Context()
		if h := r.Header.Get("X-Deadline-Ms"); h != "" {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil || ms <= 0 {
				WriteError(w, http.StatusBadRequest, "bad X-Deadline-Ms header")
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
		WriteJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":         err.Error(),
			"retry_after_s": secs,
		})
	case errors.Is(err, ErrExpired), errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
	case errors.Is(err, ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
	}
	return true
}

// DecodePredict reads a predict body for a model taking inputLen values and
// resolves its deadline_ms against the clock (zero when it carries none); a
// malformed or oversized body is answered 400 here and reported as !ok. The
// body is bounded before decoding — inputLen JSON numbers of tens of bytes
// each, plus slack — or one oversized POST could exhaust the daemon's memory.
func DecodePredict(w http.ResponseWriter, r *http.Request, inputLen int) (req PredictRequest, deadline time.Time, ok bool) {
	maxBody := int64(inputLen)*64 + 4096
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return req, deadline, false
	}
	if req.DeadlineMs > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	}
	return req, deadline, true
}

// WritePrediction writes the 200 predict reply for one served result.
func WritePrediction(w http.ResponseWriter, model string, res Result) {
	WriteJSON(w, http.StatusOK, PredictResponse{
		Model:     model,
		Output:    res.Output,
		ArgMax:    res.ArgMax,
		BatchSize: res.BatchSize,
		LatencyMs: float64(res.Latency.Microseconds()) / 1000,
	})
}

// WriteJSON writes v as the JSON body of a reply with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the {"error": msg} body every failed request gets.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
