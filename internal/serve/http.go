package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/tensor"
)

// PredictRequest is the JSON body of POST /v1/models/{name}/predict.
type PredictRequest struct {
	// Input is the flattened InC×InH×InW feature map.
	Input []float32 `json:"input"`
	// Seed selects the request's deterministic error stream.
	Seed uint64 `json:"seed"`
	// DeadlineMs optionally bounds how long the caller will wait; 0 or
	// absent means no deadline, and a negative value is rejected. A
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
// "standalone", a pipeline stage reports "stage" plus the StageSummary its
// model Info carries (position, layer range and boundary shapes; with two
// stages registered, the name-sorted first), a cluster dispatcher reports
// "dispatcher".
type HealthResponse struct {
	Status string        `json:"status"`
	Models int           `json:"models"`
	Role   Role          `json:"role"`
	Stage  *StageSummary `json:"stage,omitempty"`
}

// NewHandler exposes a Server over HTTP/JSON:
//
//	GET  /v1/healthz                   — liveness/readiness probe
//	GET  /v1/models                    — deployed model inventory
//	GET  /v1/models/{name}             — one model's deployment metadata
//	GET  /v1/stats                     — per-model serving statistics
//	POST /v1/models/{name}/predict     — one prediction
func NewHandler(s *Server) http.Handler {
	// model finds the model the request's {name} names, answering 404 when
	// there is none.
	model := func(w http.ResponseWriter, r *http.Request) (*Model, bool) {
		name := r.PathValue("name")
		m, ok := s.Model(name)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown model "+name)
		}
		return m, ok
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Load balancers poll this to decide whether to route traffic:
		// 200 while the server accepts work, 503 from the moment
		// BeginDrain (or Close) runs, so the balancer takes the instance
		// out of rotation while in-flight requests still complete.
		h := s.health()
		code := http.StatusOK
		if h.Status != "ok" {
			code = http.StatusServiceUnavailable
		}
		WriteJSON(w, code, h)
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
		if m, ok := model(w, r); ok {
			WriteJSON(w, http.StatusOK, m.Detail())
		}
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]Snapshot{}
		for _, m := range s.Models() {
			out[m.Name()] = m.Stats()
		}
		WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /v1/models/{name}/predict", func(w http.ResponseWriter, r *http.Request) {
		m, ok := model(w, r)
		if !ok {
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
		WritePrediction(w, m.name, res)
	})
	mux.HandleFunc("POST /v1/models/{name}/infer", func(w http.ResponseWriter, r *http.Request) {
		// The stage wire: one binary activation frame in, one out. The
		// dispatcher streams boundary activations stage-to-stage through
		// this endpoint; floats travel as exact bit patterns, so the
		// determinism contract survives the hop. A deadline rides in the
		// X-Deadline-Ms header since the body is not JSON.
		m, ok := model(w, r)
		if !ok {
			return
		}
		maxElems := m.inputLen
		maxBody := int64(4*maxElems) + 128
		x, seed, err := DecodeActivation(http.MaxBytesReader(w, r.Body, maxBody), maxElems)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad activation frame: "+err.Error())
			return
		}
		ctx := r.Context()
		if h := r.Header.Get("X-Deadline-Ms"); h != "" {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil || ms <= 0 || ms > maxDeadlineMs {
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

// maxDeadlineMs is the longest deadline, in milliseconds, a time.Duration
// holds; a longer one would wrap and expire the request at once.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// DecodePredict reads a predict body for a model taking inputLen values and
// resolves its deadline_ms against the clock (zero when it carries none); a
// malformed or oversized body, an input of another length or a negative or
// overlong deadline_ms is answered 400 here and reported as !ok. The body is
// bounded — inputLen JSON numbers of tens of bytes each, plus slack — or one
// oversized POST could exhaust the daemon's memory, and it is read whole
// before it is decoded: a body past the bound is refused even when its object
// ends before the bound. A body in the canonical form
// {"input":[n,…],"seed":u,"deadline_ms":i} (keys in any order, any JSON
// whitespace) is decoded in one pass without reflection (scanPredict);
// every other body goes to encoding/json, which keeps its outcome and error
// text. Either way a repeated key's last value wins and bytes after the
// object are ignored, as json.Decoder does.
func DecodePredict(w http.ResponseWriter, r *http.Request, inputLen int) (req PredictRequest, deadline time.Time, ok bool) {
	maxBody := int64(inputLen)*64 + 4096
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return req, deadline, false
	}
	if !scanPredict(buf.Bytes(), inputLen, &req) {
		var full PredictRequest // a separate variable keeps req off the heap
		if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&full); err != nil {
			WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return req, deadline, false
		}
		req = full
	}
	if len(req.Input) != inputLen {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: input length %d, want %d", len(req.Input), inputLen))
		return req, deadline, false
	}
	if req.DeadlineMs < 0 || req.DeadlineMs > maxDeadlineMs {
		WriteError(w, http.StatusBadRequest, "bad request body: deadline_ms out of range")
		return req, deadline, false
	}
	if req.DeadlineMs > 0 {
		deadline = time.Now().Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	}
	return req, deadline, true
}

// bodyPool holds DecodePredict's read buffers; nothing decoded from one
// aliases it, so a buffer goes back as soon as its body is decoded.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// scanPredict decodes b into req when b is the canonical predict body and
// reports whether it did; on false, req may be half filled. Every value
// equals what the strconv call encoding/json makes for its field's type
// returns — ParseFloat(tok, 32), ParseUint(tok, 10, 64), ParseInt(tok, 10,
// 64) — on a token already held to the JSON number grammar, so a value it
// keeps is the one encoding/json gives. The common input tokens are
// converted while they are scanned (scanner.float), and that call is the
// fallback for the rest. A repeated key overwrites the earlier value
// and the bytes after the object are ignored, as json.Decoder does with
// both. It declines anything else: a key that is not exactly one of the
// three names (encoding/json also matches other cases and escapes), null,
// or a value a Parse call refuses (a float32 overflow, a seed or
// deadline_ms that is not an integer in range).
func scanPredict(b []byte, inputLen int, req *PredictRequest) bool {
	s := scanner{b: b}
	if !s.next('{') {
		return false
	}
	for first := true; !s.next('}'); first = false {
		if !first && !s.next(',') {
			return false
		}
		k := s.key()
		if k < 0 || !s.next(':') {
			return false
		}
		var err error
		switch k {
		case 0:
			req.Input, err = s.floats(inputLen)
		case 1:
			tok, _, _, _ := s.number()
			req.Seed, err = strconv.ParseUint(string(tok), 10, 64)
		case 2:
			tok, _, _, _ := s.number()
			req.DeadlineMs, err = strconv.ParseInt(string(tok), 10, 64)
		}
		if err != nil {
			return false
		}
	}
	return true
}

// scanner is scanPredict's cursor over a body.
type scanner struct {
	b []byte
	i int
}

// errNotCanonical declines a body scanPredict leaves to encoding/json.
var errNotCanonical = errors.New("not a canonical predict body")

// next skips JSON whitespace, then consumes c if it is the next byte.
func (s *scanner) next(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// skip consumes JSON whitespace: space, tab, newline, carriage return.
func (s *scanner) skip() {
	b, i := s.b, s.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// number skips whitespace and consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, reading its magnitude on
// the way as m·10^e: m is the token's n integer and fraction digits (leading
// zeros included), exact while n ≤ 19, and an exponent of more than four
// digits puts e outside every fast path's window. Where no token starts it
// returns a nil token, which every strconv Parse call refuses, and n = 0.
func (s *scanner) number() (tok []byte, m uint64, e, n int) {
	s.skip()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	lead := i
	if i < len(b) && b[i] == '0' {
		i++
	} else if i, m = digits(b, i, 0); i == lead {
		return nil, 0, 0, 0
	}
	n = i - lead
	if i < len(b) && b[i] == '.' {
		j, v := digits(b, i+1, m)
		if j == i+1 {
			return nil, 0, 0, 0
		}
		e = i + 1 - j
		n -= e
		i, m = j, v
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j, x := digits(b, i, 0)
		switch {
		case j == i:
			return nil, 0, 0, 0
		case j-i > 4:
			x = 1 << 16
		}
		if neg {
			e -= int(x)
		} else {
			e += int(x)
		}
		i = j
	}
	s.i = i
	return b[start:i], m, e, n
}

// digits returns the end of the run of decimal digits at b[i:] and m with
// the run's digits appended to it in base 10 (wrapping past 2^64).
func digits(b []byte, i int, m uint64) (int, uint64) {
	for i < len(b) && b[i]-'0' < 10 {
		m = m*10 + uint64(b[i]-'0')
		i++
	}
	return i, m
}

// float consumes a number token and returns what strconv.ParseFloat(tok, 32)
// returns. A token of at most 19 digits m ≤ 2^53 with |e| ≤ 22 takes
// Clinger's exact fast path: m and 10^|e| are exact float64s (math.Pow10 is
// exact there), so one multiply or divide rounds the value once, to f: 0 or
// in [1e-22, 9.1e37], where float32 neither overflows nor goes subnormal.
// Every float32 midpoint is a float64, so that rounding cannot carry the
// value across one, only onto it: float32(f) is the value rounded once to
// float32 unless f is a midpoint, its low 29 bits 1<<28. Every other token,
// and a midpoint, goes to strconv.
func (s *scanner) float() (float32, error) {
	tok, m, e, n := s.number()
	if 0 < n && n <= 19 && m <= 1<<53 && -22 <= e && e <= 22 {
		f := float64(m)
		if e < 0 {
			f /= math.Pow10(-e)
		} else {
			f *= math.Pow10(e)
		}
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if tok[0] == '-' {
				f = -f
			}
			return float32(f), nil
		}
	}
	f, err := strconv.ParseFloat(string(tok), 32)
	return float32(f), err
}

// key consumes a quoted object key and returns the index of input, seed or
// deadline_ms, or -1 for any other key. An escaped key keeps its backslash
// up to its first quote, so it matches none of the three.
func (s *scanner) key() int {
	if !s.next('"') {
		return -1
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return -1
	}
	name := s.b[s.i : s.i+n]
	s.i += n + 1
	switch string(name) {
	case "input":
		return 0
	case "seed":
		return 1
	case "deadline_ms":
		return 2
	}
	return -1
}

// floats consumes a JSON array of numbers into a new slice of capacity n.
func (s *scanner) floats(n int) ([]float32, error) {
	if !s.next('[') {
		return nil, errNotCanonical
	}
	v := make([]float32, 0, n)
	if s.next(']') {
		return v, nil
	}
	for {
		f, err := s.float()
		if err != nil {
			return nil, err
		}
		v = append(v, f)
		if !s.next(',') {
			break
		}
	}
	if !s.next(']') {
		return nil, errNotCanonical
	}
	return v, nil
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
