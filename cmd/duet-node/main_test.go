package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"duet/internal/tensor"
)

// TestNodeHTTP drives the front door in process on the reduced Wide&Deep:
// a valid request is served, malformed ones are answered 400 (never a
// dropped connection), the infer endpoint is POST-only, and the health and
// metrics endpoints answer.
func TestNodeHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a reduced Wide&Deep engine")
	}
	node, err := newNodeServer("widedeep", 42, true, 1, 1, 0.002, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer node.srv.Close()
	ts := httptest.NewServer(node.handler())
	defer ts.Close()

	g, _, err := buildModel("widedeep", 42, true)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]jsonTensor{}
	for _, nd := range g.Nodes() {
		if nd.IsInput() {
			inputs[nd.Name] = jsonTensor{Shape: nd.Shape, Data: make([]float32, tensor.Numel(nd.Shape))}
		}
	}
	valid, err := json.Marshal(inferRequest{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}

	post := func(t *testing.T, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %.60s: %v", body, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	t.Run("valid", func(t *testing.T) {
		code, body := post(t, string(valid))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var out inferResponse
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		if out.Outcome != "ok" || len(out.Outputs) == 0 {
			t.Fatalf("outcome %q with %d outputs, want ok with outputs", out.Outcome, len(out.Outputs))
		}
	})

	for _, c := range []struct{ name, body string }{
		{"malformed JSON", `{"inputs":`},
		{"no inputs", `{"inputs":{}}`},
		{"length mismatch", `{"inputs":{"wide.x":{"shape":[2,2],"data":[1,2,3]}}}`},
		{"negative dims", `{"inputs":{"wide.x":{"shape":[-1,-2],"data":[1,2]}}}`},
		{"zero dim", `{"inputs":{"wide.x":{"shape":[0,4],"data":[]}}}`},
		{"overflowing dims", `{"inputs":{"wide.x":{"shape":[4294967296,4294967296],"data":[]}}}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			if code, body := post(t, c.body); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", code, body)
			}
		})
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, _ := get("/v1/infer"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/infer: status %d, want 405", code)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("GET /healthz: status %d: %s", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "serve_") {
		t.Errorf("GET /metrics: status %d, no serve_ series:\n%.400s", code, body)
	}
}
