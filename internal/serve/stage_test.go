package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/eden"
	"repro/internal/errormodel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// TestEncodeDecodeActivation pins the wire codec: exact bit round trips
// (including NaN payloads and denormals), seed carriage, and the guards
// against hostile frames.
func TestEncodeDecodeActivation(t *testing.T) {
	data := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 1e-42, float32(1.0 / 3.0), math.Float32frombits(0x7FC12345)}
	x := tensor.FromSlice(append([]float32(nil), data...), 1, len(data))
	var buf bytes.Buffer
	if err := EncodeActivation(&buf, x, 0xFEED); err != nil {
		t.Fatal(err)
	}
	got, seed, err := DecodeActivation(&buf, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if seed != 0xFEED {
		t.Fatalf("seed %x", seed)
	}
	if !got.Shape().Equal(x.Shape()) {
		t.Fatalf("shape %v", got.Shape())
	}
	if !sameBits(got.Data, data) {
		t.Fatalf("decoded %v, want the bits of %v", got.Data, data)
	}

	// Encode→decode→encode is byte-identical.
	var again bytes.Buffer
	if err := EncodeActivation(&again, got, seed); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := EncodeActivation(&first, x, 0xFEED); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("codec round trip not byte-identical")
	}

	// Guards: bad magic, oversized element count, truncated payload.
	if _, _, err := DecodeActivation(strings.NewReader("NOTAFRAME........................"), 10); err == nil {
		t.Fatal("bad magic accepted")
	}
	var big bytes.Buffer
	if err := EncodeActivation(&big, tensor.FromSlice(make([]float32, 64), 1, 64), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeActivation(&big, 16); err == nil {
		t.Fatal("oversized frame accepted")
	}
	var trunc bytes.Buffer
	if err := EncodeActivation(&trunc, x, 1); err != nil {
		t.Fatal(err)
	}
	cut := trunc.Bytes()[:trunc.Len()-3]
	if _, _, err := DecodeActivation(bytes.NewReader(cut), len(data)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// FuzzDecodeActivation feeds DecodeActivation hostile frames — truncated
// anywhere, rank and dims that lie about the payload, element counts past
// (or overflowing) the limit, NaN and Inf payloads — under arbitrary limits.
// It must never panic or accept more than the limit allows, and what it
// accepts must be the frame's own bytes: re-encoding reproduces them.
func FuzzDecodeActivation(f *testing.F) {
	frame := func(rank uint32, dims []uint32, payload []byte) []byte {
		b := append([]byte(actMagic), make([]byte, 12)...)
		binary.LittleEndian.PutUint64(b[len(actMagic):], 0xFEED)
		binary.LittleEndian.PutUint32(b[len(actMagic)+8:], rank)
		for _, d := range dims {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
		return append(b, payload...)
	}
	nan := binary.LittleEndian.AppendUint32(nil, 0x7fc00123)
	good := frame(2, []uint32{1, 2}, append(nan, 0, 0, 0x80, 0xff)) // NaN payload, -Inf
	f.Add(good, 16)
	f.Add(good[:len(good)-3], 16)                         // truncated payload
	f.Add(good[:len(actMagic)+5], 16)                     // truncated header
	f.Add(frame(2, []uint32{1}, nil), 16)                 // rank past the dims present
	f.Add(frame(0, nil, nil), 16)                         // rank 0
	f.Add(frame(9, make([]uint32, 9), nil), 16)           // rank past maxActRank
	f.Add(frame(2, []uint32{1, 64}, make([]byte, 8)), 16) // dims past the limit and the payload
	f.Add(frame(2, []uint32{0, 4}, nil), 16)              // zero dim
	const m = 0xffffffff
	f.Add(frame(8, []uint32{m, m, m, m, m, m, m, m}, nil), 1<<31)         // product overflows int64
	f.Add(frame(4, []uint32{1 << 16, 1 << 16, 1 << 16, 1 << 16}, nil), 0) // product wraps to 0, no limit given
	f.Add(good, -1)
	f.Add([]byte("NOTAFRAME........................"), 16)
	f.Fuzz(func(t *testing.T, in []byte, maxElems int) {
		maxElems = min(maxElems, 1<<16) // keep an accepted frame's allocation small
		r := bytes.NewReader(in)
		x, seed, err := DecodeActivation(r, maxElems)
		if err != nil {
			return
		}
		if x.Size() > maxElems || x.Size() != len(x.Data) {
			t.Fatalf("accepted %v (%d values) under a limit of %d", x.Shape(), len(x.Data), maxElems)
		}
		var again bytes.Buffer
		if err := EncodeActivation(&again, x, seed); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("re-encoded frame differs from the %d bytes consumed", len(consumed))
		}
	})
}

// TestStageServing deploys a stage slice and drives it over HTTP: the
// healthz role report, the stage-aware model info, the binary /infer round
// trip (bit-identical to forwarding the slice in process), and the
// rejection of whole-model artifacts on the wrong path.
func TestStageServing(t *testing.T) {
	dep := testDeployment(t)
	L := len(dep.Net.Layers)
	slice0, err := dep.Slice(0, L/2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}

	// A stage slice must not pass the whole-model path, and vice versa.
	if _, err := New(Config{}).Deploy(slice0); err == nil {
		t.Fatal("Deploy accepted a stage slice")
	}
	if _, err := New(Config{}).DeployStage(dep); err == nil {
		t.Fatal("DeployStage accepted a whole-model artifact")
	}

	srv := New(Config{MaxBatch: 4})
	m, err := srv.DeployStage(slice0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Role() != RoleStage {
		t.Fatalf("role %q", srv.Role())
	}
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	// healthz carries the stage identity.
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Role != RoleStage || health.Stage == nil ||
		health.Stage.Index != 0 || health.Stage.Count != 2 || health.Stage.Layers != [2]int{0, L / 2} {
		t.Fatalf("stage healthz %+v", health)
	}

	// Model info reports the stage summary and boundary-sized output.
	info := m.Info()
	if info.Stage == nil || info.Stage.Layers != [2]int{0, L / 2} {
		t.Fatalf("info stage %+v", info.Stage)
	}
	wantOut := 1
	for _, d := range slice0.Stage.OutDims[1:] {
		wantOut *= d
	}
	if info.OutputLen != wantOut {
		t.Fatalf("stage output len %d, want %d", info.OutputLen, wantOut)
	}

	// In-process reference: the slice's corrupted forward for this seed.
	net, err := slice0.CloneNet()
	if err != nil {
		t.Fatal(err)
	}
	corr := slice0.NewCorruptor()
	corr.CorruptWeights(net)
	rng := tensor.NewRNG(0x57A6)
	x := tensor.New(slice0.Stage.InDims...)
	x.FillUniform(rng, -1, 1)
	const seed = 99
	want := net.Forward(x.Clone(), false, corr.Clone(seed).IFMHook())

	// The same activation over the binary wire.
	var frame bytes.Buffer
	if err := EncodeActivation(&frame, x, seed); err != nil {
		t.Fatal(err)
	}
	post, err := ts.Client().Post(ts.URL+"/v1/models/LeNet/infer", "application/octet-stream", &frame)
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(post.Body)
		t.Fatalf("infer status %d: %s", post.StatusCode, body)
	}
	maxElems := 1
	for _, d := range slice0.Stage.OutDims {
		maxElems *= d
	}
	out, echoSeed, err := DecodeActivation(post.Body, maxElems)
	if err != nil {
		t.Fatal(err)
	}
	if echoSeed != seed {
		t.Fatalf("echoed seed %d", echoSeed)
	}
	if !out.Shape().Equal(want.Shape()) {
		t.Fatalf("output shape %v, want %v", out.Shape(), want.Shape())
	}
	if !sameBits(out.Data, want.Data) {
		t.Fatalf("activation differs over the wire: %v, want the bits of %v", out.Data, want.Data)
	}

	// Wrong-shaped activations are rejected, not computed.
	badShape := tensor.New(1, 3, 3)
	var badFrame bytes.Buffer
	if err := EncodeActivation(&badFrame, badShape, 1); err != nil {
		t.Fatal(err)
	}
	bad, err := ts.Client().Post(ts.URL+"/v1/models/LeNet/infer", "application/octet-stream", &badFrame)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shape status %d", bad.StatusCode)
	}

	// PredictActivation validates dims directly too.
	if _, err := m.PredictActivation(context.Background(), badShape, 1); err == nil {
		t.Fatal("PredictActivation accepted wrong dims")
	}
}

// TestDetectorStageInfo: only the last stage of a detector carries the
// detection head, so an earlier stage must describe itself — in Info and in
// the listing the cluster dispatcher discovers stages through — from its
// boundary shape alone.
func TestDetectorStageInfo(t *testing.T) {
	net, err := dnn.BuildModel("YOLO-Tiny")
	if err != nil {
		t.Fatal(err)
	}
	dep := &eden.Deployment{
		ModelName:  "YOLO-Tiny",
		Prec:       quant.Int8,
		ErrorModel: errormodel.Uniform(1e-4),
		ServingBER: 1e-4,
		Net:        net,
	}
	slice0, err := dep.Slice(0, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if slice0.Net.Det != nil {
		t.Fatal("stage 0 carries the detection head; the test no longer covers the headless case")
	}
	srv := New(Config{MaxBatch: 1})
	defer srv.Close()
	m, err := srv.DeployStage(slice0)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := 1
	for _, d := range slice0.Stage.OutDims[1:] {
		wantOut *= d
	}
	if info := m.Info(); info.Task != "detect" || info.OutputLen != wantOut {
		t.Fatalf("stage info %+v, want detect with output len %d", info, wantOut)
	}

	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []Info
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(infos) != 1 || infos[0].OutputLen != wantOut || infos[0].Stage == nil {
		t.Fatalf("listing status %d: %+v", resp.StatusCode, infos)
	}
}

// TestMetricsEndpoint drives a few predictions and checks the Prometheus
// exposition: counters present and consistent with the stats snapshot,
// histogram buckets cumulative.
func TestMetricsEndpoint(t *testing.T) {
	dep := testDeployment(t)
	srv := New(Config{MaxBatch: 4})
	m, err := srv.Deploy(dep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	inputs := testInputs(t, "LeNet", 6)
	for i, in := range inputs {
		if _, err := m.Predict(context.Background(), in, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`serve_requests_total{model="LeNet"} 6`,
		`# TYPE serve_requests_total counter`,
		`# TYPE serve_qps gauge`,
		`serve_latency_seconds{model="LeNet",quantile="0.5"}`,
		`serve_batch_size_bucket{model="LeNet",le="+Inf"}`,
		`serve_queue_capacity{model="LeNet"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	// The +Inf bucket equals the batch count reported by the snapshot.
	snap := m.Stats()
	if !strings.Contains(text, `serve_batch_size_count{model="LeNet"} `+itoa(snap.Batches)) {
		t.Fatalf("batch count mismatch with snapshot %d in:\n%s", snap.Batches, text)
	}
}

// itoa renders a uint64 without pulling strconv into the assertion noise.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
