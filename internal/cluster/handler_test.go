package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestFrontDoorsRejectAlike posts the same bad predict requests to a
// standalone server and to a dispatcher fronting the same artifact: a
// client cannot tell the two apart on the success path, and must not be
// able to on the rejection path either — same status, same error JSON.
func TestFrontDoorsRejectAlike(t *testing.T) {
	dep := e2eDeployment(t)
	whole := serve.New(serve.Config{})
	if _, err := whole.Deploy(dep); err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	standalone := httptest.NewServer(serve.NewHandler(whole))
	defer standalone.Close()

	L := len(dep.Net.Layers)
	slices, err := SliceAll(dep, Plan{Ranges: [][2]int{{0, L / 2}, {L / 2, L}}})
	if err != nil {
		t.Fatal(err)
	}
	_, ts0 := startStage(t, slices[0], serve.Config{})
	_, ts1 := startStage(t, slices[1], serve.Config{})
	d, err := NewDispatcher(DispatcherConfig{
		Model:          "LeNet",
		Stages:         [][]string{{ts0.URL}, {ts1.URL}},
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front := httptest.NewServer(d.Handler())
	defer front.Close()

	post := func(base, model, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/models/"+model+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(reply)
	}
	inputLen := dep.Net.InC * dep.Net.InH * dep.Net.InW
	for _, c := range []struct {
		name, model, body string
		status            int
	}{
		{"malformed body", "LeNet", `{"input":[1,2,`, http.StatusBadRequest},
		{"unknown model", "NoSuchModel", `{"input":[]}`, http.StatusNotFound},
		{"oversized body", "LeNet", `{"input":[` + strings.Repeat("0,", inputLen*64+4096) + `0]}`, http.StatusBadRequest},
		{"wrong input length", "LeNet", `{"input":[1,2,3]}`, http.StatusBadRequest},
		{"negative deadline", "LeNet", `{"input":[` + strings.Repeat("0,", inputLen-1) + `0],"deadline_ms":-5}`, http.StatusBadRequest},
	} {
		wantCode, wantBody := post(standalone.URL, c.model, c.body)
		gotCode, gotBody := post(front.URL, c.model, c.body)
		if wantCode != c.status || !strings.Contains(wantBody, `"error"`) {
			t.Fatalf("%s: standalone answered %d %s, want %d with an error body", c.name, wantCode, wantBody, c.status)
		}
		if gotCode != wantCode || gotBody != wantBody {
			t.Fatalf("%s: dispatcher answered %d %s, standalone %d %s", c.name, gotCode, gotBody, wantCode, wantBody)
		}
	}
}
