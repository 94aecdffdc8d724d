package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// errorBody decodes the {"error": ...} payload every failure path returns.
func errorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusMethodNotAllowed && ct != "application/json" {
		t.Fatalf("error response content type %q", ct)
	}
	var m map[string]string
	if resp.StatusCode != http.StatusMethodNotAllowed {
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("error body not JSON: %v", err)
		}
	}
	return m["error"]
}

// TestHTTPErrorPaths covers every failure branch of the handler: unknown
// model on both model-scoped endpoints, malformed JSON, wrong input length,
// and method mismatches (the mux's 405s with correct Allow headers).
func TestHTTPErrorPaths(t *testing.T) {
	setWorkers(t, 1)
	s := New(Config{MaxBatch: 1})
	defer s.Close()
	deployUniform(t, s, "LeNet", quant.FP32, 0)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	post := func(path, body string) *http.Response {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Unknown model: 404 from predict and from the detail endpoint.
	if resp := post("/v1/models/NoSuch/predict", "{}"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict unknown model: status %d", resp.StatusCode)
	} else if msg := errorBody(t, resp); !strings.Contains(msg, "NoSuch") {
		t.Fatalf("predict unknown model error %q", msg)
	}
	if resp := get("/v1/models/NoSuch"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detail unknown model: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Malformed JSON body.
	if resp := post("/v1/models/LeNet/predict", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	} else if msg := errorBody(t, resp); !strings.Contains(msg, "bad request body") {
		t.Fatalf("bad JSON error %q", msg)
	}

	// Wrong input length.
	if resp := post("/v1/models/LeNet/predict", `{"input":[1,2,3],"seed":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input: status %d", resp.StatusCode)
	} else if msg := errorBody(t, resp); !strings.Contains(msg, "input length") {
		t.Fatalf("short input error %q", msg)
	}

	// Method mismatches.
	for _, tc := range []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/models"},
		{http.MethodPost, "/v1/models/LeNet"},
		{http.MethodGet, "/v1/models/LeNet/predict"},
		{http.MethodPost, "/v1/stats"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestHTTPDeadlineOutOfRange holds both deadline inputs to what a
// time.Duration can carry: a negative deadline or a longer one is a 400 on
// /predict (body deadline_ms) and on /infer (X-Deadline-Ms), not a request
// run without a deadline or expired at once with 504; the largest is served.
func TestHTTPDeadlineOutOfRange(t *testing.T) {
	setWorkers(t, 1)
	s := New(Config{MaxBatch: 1})
	defer s.Close()
	m := deployUniform(t, s, "LeNet", quant.FP32, 0)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	in := testInputs(t, "LeNet", 1)[0]

	predict := func(deadlineMs int64) *http.Response {
		body, _ := json.Marshal(PredictRequest{Input: in, Seed: 7, DeadlineMs: deadlineMs})
		resp, err := http.Post(srv.URL+"/v1/models/LeNet/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	infer := func(header string) *http.Response {
		var frame bytes.Buffer
		if err := EncodeActivation(&frame, tensor.FromSlice(append([]float32(nil), in...), m.inDims...), 7); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/models/LeNet/infer", &frame)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Deadline-Ms", header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for _, ms := range []int64{250, maxDeadlineMs} {
		resp := predict(ms)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict deadline_ms %d: status %d, want 200", ms, resp.StatusCode)
		}
		resp = infer(strconv.FormatInt(ms, 10))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("infer X-Deadline-Ms %d: status %d, want 200", ms, resp.StatusCode)
		}
	}
	for _, ms := range []int64{maxDeadlineMs + 1, 1 << 62, math.MaxInt64, -1, math.MinInt64} {
		resp := predict(ms)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("predict deadline_ms %d: status %d, want 400", ms, resp.StatusCode)
		} else if msg := errorBody(t, resp); msg != "bad request body: deadline_ms out of range" {
			t.Fatalf("predict deadline_ms %d: error %q", ms, msg)
		}
		resp = infer(strconv.FormatInt(ms, 10))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("infer X-Deadline-Ms %d: status %d, want 400", ms, resp.StatusCode)
		} else if msg := errorBody(t, resp); msg != "bad X-Deadline-Ms header" {
			t.Fatalf("infer X-Deadline-Ms %d: error %q", ms, msg)
		}
	}
}

// TestHTTPModelDetail exercises GET /v1/models/{name} for both kinds of
// artifact: a pipeline deployment reports its operating-point metadata, a
// uniform (raw-BER) deployment has none to report.
func TestHTTPModelDetail(t *testing.T) {
	setWorkers(t, 1)
	dep := testDeployment(t)
	s := New(Config{MaxBatch: 2})
	defer s.Close()
	if _, err := s.Deploy(dep); err != nil {
		t.Fatal(err)
	}
	deployUniform(t, s, "AlexNet", quant.Int8, 1e-4)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	getDetail := func(name string) ModelDetail {
		resp, err := http.Get(srv.URL + "/v1/models/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detail %s: status %d", name, resp.StatusCode)
		}
		var d ModelDetail
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return d
	}

	d := getDetail("LeNet")
	if d.Name != "LeNet" || d.Precision != "int8" {
		t.Fatalf("deployed detail %+v", d)
	}
	if d.Deployment == nil {
		t.Fatal("deployed model reports no deployment metadata")
	}
	if d.Deployment.Vendor != dep.Vendor || d.Deployment.TolerableBER != dep.TolerableBER ||
		d.Deployment.ServingBER != dep.ServingBER || d.Deployment.DeltaVDD != dep.DeltaVDD {
		t.Fatalf("deployment metadata %+v vs artifact %+v", d.Deployment, dep)
	}
	if d.Deployment.FineGrained != dep.FineGrained {
		t.Fatalf("fine-grained flag %v, want %v", d.Deployment.FineGrained, dep.FineGrained)
	}

	raw := getDetail("AlexNet")
	if raw.Deployment != nil {
		t.Fatalf("raw-BER model reports deployment metadata: %+v", raw.Deployment)
	}
	if raw.BER != 1e-4 {
		t.Fatalf("raw-BER detail %+v", raw)
	}
}

// FuzzDecodePredict drives the predict-body decoder with hostile bodies for
// LeNet's 3×16×16 input. A rejected body must be answered 400 with an
// {"error": ...} JSON body; an accepted one must carry exactly inputLen
// values and a deadline_ms of at least 0, re-marshalled and decoded again
// must give back the same input bits, seed and deadline, and a positive
// deadline_ms must resolve to a time after the decode.
func FuzzDecodePredict(f *testing.F) {
	const inputLen = 3 * 16 * 16
	valid := `{"input":[` + strings.Repeat("0,", inputLen-1) + "1" + `],"seed":7}`
	f.Add([]byte(valid))
	f.Add([]byte(`{"input":[1,-0,3.4028235e38,` + strings.Repeat("0,", inputLen-4) + `0],"seed":18446744073709551615,"deadline_ms":250}`))
	f.Add([]byte(valid[:len(valid)/2]))                                                   // truncated
	f.Add([]byte(`{"input":[` + strings.Repeat("0,", inputLen*32+2048) + `0],"seed":1}`)) // past the body bound
	f.Add([]byte(`{"input":["a",true,null],"seed":"x"}`))                                 // non-numeric
	f.Add([]byte(`{"input":[1],"seed":1,"deadline_ms":9223372036854775807}`))             // past a time.Duration
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/models/LeNet/predict", bytes.NewReader(body))
		decoded := time.Now()
		req, deadline, ok := DecodePredict(w, r, inputLen)
		if !ok {
			var reply map[string]string
			if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &reply) != nil || reply["error"] == "" {
				t.Fatalf("rejected body answered %d %q, want 400 with an error", w.Code, w.Body.String())
			}
			return
		}
		if w.Body.Len() != 0 {
			t.Fatalf("accepted body got a reply: %q", w.Body.String())
		}
		if len(req.Input) != inputLen || req.DeadlineMs < 0 {
			t.Fatalf("accepted %d values with deadline_ms %d", len(req.Input), req.DeadlineMs)
		}
		if deadline.IsZero() != (req.DeadlineMs <= 0) {
			t.Fatalf("deadline_ms %d resolved to %v", req.DeadlineMs, deadline)
		}
		if req.DeadlineMs > 0 && !deadline.After(decoded) {
			t.Fatalf("deadline_ms %d resolved to %v, not after the decode at %v", req.DeadlineMs, deadline, decoded)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		var back PredictRequest
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("re-marshalled request %q does not decode: %v", again, err)
		}
		if back.Seed != req.Seed || back.DeadlineMs != req.DeadlineMs || len(back.Input) != len(req.Input) {
			t.Fatalf("round trip %+v -> %+v", req, back)
		}
		for i, v := range req.Input {
			if math.Float32bits(back.Input[i]) != math.Float32bits(v) {
				t.Fatalf("input[%d]: %v -> %v", i, v, back.Input[i])
			}
		}
	})
}
