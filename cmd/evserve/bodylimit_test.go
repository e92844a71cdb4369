package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestRequestBodyCap sends every JSON route a body just over
// maxRequestBytes and expects the typed 413 envelope, while a normal body
// on the same server still answers 200.
func TestRequestBodyCap(t *testing.T) {
	ts := testServer(t)
	pad := strings.Repeat("x", maxRequestBytes)
	for _, route := range []string{"/v1/query", "/v1/batch", "/v1/mpe", "/v1/dsep"} {
		body := []byte(`{"pad":"` + pad + `"}`)
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode envelope: %v", route, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != "payload_too_large" {
			t.Errorf("%s: oversize body answered %d %q, want 413 payload_too_large", route, resp.StatusCode, env.Error.Code)
		}
	}

	resp := post(t, ts.URL+"/v1/query", map[string]any{"evidence": map[string]int{"XRay": 1}, "query": []string{"Lung"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal query answered %d", resp.StatusCode)
	}
	var out struct {
		PEvidence float64 `json:"p_evidence"`
	}
	decode(t, resp, &out)
	if out.PEvidence < 0.1102 || out.PEvidence > 0.1104 {
		t.Errorf("p_evidence %v, want ≈ 0.11029", out.PEvidence)
	}
}
