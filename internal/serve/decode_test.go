package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/quant"
)

// referenceDecodePredict is DecodePredict before its one-pass scanner:
// encoding/json decoding straight off the bounded body. FuzzDecodePredict
// holds DecodePredict to it and BenchmarkDecodePredict times both.
func referenceDecodePredict(w http.ResponseWriter, r *http.Request, inputLen int) (req PredictRequest, deadline time.Time, ok bool) {
	maxBody := int64(inputLen)*64 + 4096
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return req, deadline, false
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

// canonicalBody is a predict body shaped like the benchmark client's: n
// values k/2^23 - 1 in [-1, 1) and a 64-bit seed, as json.Marshal writes
// them.
func canonicalBody(tb testing.TB, n int) []byte {
	tb.Helper()
	in := make([]float32, n)
	x := uint64(0x5EED)
	for i := range in {
		x = x*6364136223846793005 + 1442695040888963407
		in[i] = float32(x>>40)/float32(1<<23) - 1
	}
	body, err := json.Marshal(PredictRequest{Input: in, Seed: x})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzDecodePredict holds DecodePredict to referenceDecodePredict on
// hostile bodies for LeNet's 3×16×16 input: both accept or both refuse, with
// the same status and reply body (so the same error text), and an accepted
// body gives the same input bits, seed and deadline_ms, a positive
// deadline_ms resolving to a time after the decode. The one difference is
// deliberate: DecodePredict reads the body whole, so a body past the bound
// is refused even where the reference's chunked reads accepted an object
// that ended before it.
func FuzzDecodePredict(f *testing.F) {
	const inputLen = 3 * 16 * 16
	const maxBody = inputLen*64 + 4096
	// withFirst is a body whose input starts with the token v, zeros after.
	withFirst := func(v, rest string) string {
		return `{"input":[` + v + strings.Repeat(",0", inputLen-1) + `]` + rest + `}`
	}
	valid := withFirst("1", `,"seed":7`)
	for _, body := range []string{
		valid,
		`{"input":[1,-0,3.4028235e38,` + strings.Repeat("0,", inputLen-4) + `0],"seed":18446744073709551615,"deadline_ms":250}`,
		valid[:len(valid)/2], // truncated
		`{"input":[` + strings.Repeat("0,", inputLen*32+2048) + `0],"seed":1}`, // past the body bound
		`{"input":["a",true,null],"seed":"x"}`,                                 // non-numeric
		`{"input":[1],"seed":1,"deadline_ms":9223372036854775807}`,             // past a time.Duration
		valid + strings.Repeat(" ", maxBody),                                   // the object ends before the bound, the body after it
		// One per kind of body the scanner leaves to encoding/json.
		`{"inp\u0075t":[1` + strings.Repeat(",0", inputLen-1) + `],"seed":3}`, // escaped key
		`{"Input":[1` + strings.Repeat(",0", inputLen-1) + `],"SEED":3}`,      // another case
		withFirst("1", `,"seed":1,"extra":{"a":[1,"b"]}`),                     // unknown key
		withFirst("1", `,"seed":null`),                                        // null
		`{"input":null,"seed":1}`,
		withFirst("1", `,"seed":1.5`), // non-integer
		withFirst("1", `,"deadline_ms":2.0`),
		withFirst("3.5e38", ""), // float32 overflow
		withFirst("1", `,"seed":18446744073709551616`),
		withFirst("1", `,"deadline_ms":9223372036854775808`),
		// Bodies the scanner reads as json.Decoder does: the last of a
		// repeated key wins, and the bytes after the object are not read.
		withFirst("1", `,"seed":1,"seed":2`),
		withFirst("1", `,"input":[2]`),
		valid + ` {"seed":2}`,
		valid + "x",
		// Numbers at the edges of the grammar and of float32.
		withFirst("-0", ""),
		withFirst("1E5", ""),
		withFirst("1e-50", ""),
		withFirst("01", ""),
		withFirst("1.", ""),
		withFirst(".5", ""),
		withFirst("+1", ""),
		withFirst("1e", ""),
		withFirst("-", ""),
		withFirst("1", `,"seed":1e3`),
		withFirst("1", `,"seed":-1`),
		withFirst("1", `,"deadline_ms":-0`),
		`{}`,
		`{"input":[]}`,
		"",
		" \t\r\n" + strings.ReplaceAll(withFirst("1", ` , "seed" : 9 , "deadline_ms" : 5 `), ",", "\n,\t") + " \n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		decoded := time.Now()
		req, deadline, ok := DecodePredict(w, httptest.NewRequest(http.MethodPost, "/v1/models/LeNet/predict", bytes.NewReader(body)), inputLen)
		if !ok {
			var reply map[string]string
			if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &reply) != nil || reply["error"] == "" {
				t.Fatalf("rejected body answered %d %q, want 400 with an error", w.Code, w.Body.String())
			}
		}
		if len(body) > maxBody {
			if ok || !strings.Contains(w.Body.String(), "request body too large") {
				t.Fatalf("body of %d bytes past the %d-byte bound answered %d %q", len(body), maxBody, w.Code, w.Body.String())
			}
			return
		}
		rw := httptest.NewRecorder()
		want, _, wantOK := referenceDecodePredict(rw, httptest.NewRequest(http.MethodPost, "/v1/models/LeNet/predict", bytes.NewReader(body)), inputLen)
		if ok != wantOK || w.Code != rw.Code || w.Body.String() != rw.Body.String() {
			t.Fatalf("answered %v %d %q, reference %v %d %q", ok, w.Code, w.Body.String(), wantOK, rw.Code, rw.Body.String())
		}
		if !ok {
			return
		}
		if req.Seed != want.Seed || req.DeadlineMs != want.DeadlineMs || !sameBits(req.Input, want.Input) {
			t.Fatalf("decoded seed %d deadline_ms %d, reference seed %d deadline_ms %d (inputs equal: %v)",
				req.Seed, req.DeadlineMs, want.Seed, want.DeadlineMs, sameBits(req.Input, want.Input))
		}
		if deadline.IsZero() != (req.DeadlineMs == 0) {
			t.Fatalf("deadline_ms %d resolved to %v", req.DeadlineMs, deadline)
		}
		if req.DeadlineMs > 0 && !deadline.After(decoded) {
			t.Fatalf("deadline_ms %d resolved to %v, not after the decode at %v", req.DeadlineMs, deadline, decoded)
		}
	})
}

// jsonNumber is the JSON number grammar the scanner holds tokens to.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// FuzzParseFloat32 holds the scanner's float conversion to the strconv call
// it stands in for. The token scanned at the start of any input is a JSON
// number, all of the input when the input is one, and scanner.float gives
// what strconv.ParseFloat(tok, 32) gives: the same accept or refuse and the
// same float32 bits.
func FuzzParseFloat32(f *testing.F) {
	for k := range 23 { // the fast path's powers of ten must be exact
		if want, _ := strconv.ParseFloat("1e"+strconv.Itoa(k), 64); math.Pow10(k) != want {
			f.Fatalf("math.Pow10(%d) = %v, want %v", k, math.Pow10(k), want)
		}
	}
	for _, tok := range []string{
		// Within half a float64 ulp of a float32 midpoint, on the side its
		// tie does not round to: inside the fast path's window (e = -15,
		// e = 4 and e = -21) and just outside it on either side (e = ±23).
		"8.000000476837159", "3.933766951061632e19", "7.888455456850352e-6",
		"8.866664913398381e-8", "2.754829584806399e38",
		// Exact float32 midpoints: 2^24+1, 1+2^-24.
		"16777217", "-1.000000059604644775390625",
		// Mantissas 2^53 and 2^53+1, and one just past 2^53 whose float64
		// rounding crosses a float32 midpoint.
		"9007199254740992", "9007199254740993", "0.12225116416811943",
		// 19- and 20-digit mantissas.
		"1234567890123456789", "-0.1234567890123456789", "12345678901234567890", "1.2345678901234567890e-3",
		// The window's edges, and the edges of float32.
		"1e22", "1e23", "1e-22", "1e-23", "-0", "0e-30", "1e-45", "3.4028235e38", "3.5e38", "-1e39",
		"1E+05", "0.000001", "1e00005", "1e99999", "0.0000000000000000000001",
		// Integers at 10^18 and at the edges of int64 and uint64.
		"999999999999999999", "1000000000000000000", "9223372036854775807", "9223372036854775808",
		"18446744073709551615", "18446744073709551616", "-1", "1.0", "1e3",
		// No number, or one with bytes after it.
		"", " \t7,", "-", "01", "1.", ".5", "+1", "1e", "1e+", "-x", "1x", "2.5]",
	} {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, in string) {
		start := len(in) - len(strings.TrimLeft(in, " \t\n\r"))
		s := scanner{b: []byte(in)}
		got, err := s.float()
		tok := in[start:s.i]
		if tok != "" && !jsonNumber.MatchString(tok) {
			t.Fatalf("scanned %q from %q, not a JSON number", tok, in)
		}
		if jsonNumber.MatchString(in) && tok != in {
			t.Fatalf("scanned %q of the number %q", tok, in)
		}
		want, wantErr := strconv.ParseFloat(tok, 32)
		if (err == nil) != (wantErr == nil) || math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%q converted to %v (%#x, err %v), strconv gives %v (%#x, err %v)",
				tok, got, math.Float32bits(got), err, float32(want), math.Float32bits(float32(want)), wantErr)
		}
	})
}

// TestDecodePredictAllocs pins a warmed decode of a canonical body at two
// allocations: the input slice and the MaxBytesReader around the body. The
// collector is off meanwhile, since a cycle empties the buffer pool.
func TestDecodePredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const inputLen = 3 * 16 * 16
	raw := canonicalBody(t, inputLen)
	body := bytes.NewReader(raw)
	r := httptest.NewRequest(http.MethodPost, "/v1/models/LeNet/predict", body)
	w := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(100, func() {
		body.Reset(raw)
		if _, _, ok := DecodePredict(w, r, inputLen); !ok {
			t.Fatalf("canonical body refused: %s", w.Body.String())
		}
	})
	if allocs > 2 {
		t.Fatalf("DecodePredict made %v allocations per canonical body, want at most 2", allocs)
	}
}

// TestDecodePredictConcurrent posts distinct bodies from eight goroutines
// at once and checks every reply against in-process Predict of its own
// input and seed, so no pooled read buffer is shared by two requests.
func TestDecodePredictConcurrent(t *testing.T) {
	setWorkers(t, 2)
	s := New(Config{MaxBatch: 4})
	defer s.Close()
	m := deployUniform(t, s, "LeNet", quant.Int8, 1e-3)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	const clients, rounds = 8, 4
	ins := testInputs(t, "LeNet", clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				seed := uint64(c*rounds + i)
				want, err := m.Predict(context.Background(), ins[c], seed)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := json.Marshal(PredictRequest{Input: ins[c], Seed: seed})
				resp, err := http.Post(srv.URL+"/v1/models/LeNet/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var got PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d seed %d: status %d, %v", c, seed, resp.StatusCode, err)
					return
				}
				if !sameBits(got.Output, want.Output) {
					t.Errorf("client %d seed %d: reply bits differ from in-process Predict", c, seed)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDecodePredict decodes a canonical LeNet body with DecodePredict
// (pass) and with referenceDecodePredict (reference), the encoding/json
// decode the pass stands in front of.
func BenchmarkDecodePredict(b *testing.B) {
	const inputLen = 3 * 16 * 16
	raw := canonicalBody(b, inputLen)
	for _, bc := range []struct {
		name   string
		decode func(http.ResponseWriter, *http.Request, int) (PredictRequest, time.Time, bool)
	}{{"pass", DecodePredict}, {"reference", referenceDecodePredict}} {
		b.Run(bc.name, func(b *testing.B) {
			body := bytes.NewReader(raw)
			r := httptest.NewRequest(http.MethodPost, "/v1/models/LeNet/predict", body)
			w := httptest.NewRecorder()
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				body.Reset(raw)
				if _, _, ok := bc.decode(w, r, inputLen); !ok {
					b.Fatalf("canonical body refused: %s", w.Body.String())
				}
			}
		})
	}
}
