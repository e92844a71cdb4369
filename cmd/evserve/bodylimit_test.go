package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"evprop"
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

// TestBatchQueryCap rejects a batch of more than maxBatchQueries
// sub-queries with the 413 envelope before any of them propagates, and
// still answers a normal batch.
func TestBatchQueryCap(t *testing.T) {
	ts := testServer(t)
	before := statsSnapshot(t, ts)
	over := `{"queries":[{}` + strings.Repeat(`,{}`, maxBatchQueries) + `]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	decode(t, resp, &env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != "payload_too_large" {
		t.Errorf("oversize batch answered %d %q, want 413 payload_too_large", resp.StatusCode, env.Error.Code)
	}
	if after := statsSnapshot(t, ts); after.Propagations != before.Propagations {
		t.Errorf("rejected batch ran %d propagations", after.Propagations-before.Propagations)
	}

	resp = post(t, ts.URL+"/v1/batch", batchRequest{Queries: []queryRequest{
		{Evidence: evprop.Evidence{"XRay": 1}}, {Evidence: evprop.Evidence{"Dysp": 1}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal batch answered %d", resp.StatusCode)
	}
	var b batchResponse
	decode(t, resp, &b)
	if len(b.Results) != 2 || b.Results[0].Error != "" || b.Results[1].Error != "" {
		t.Errorf("normal batch results %+v", b.Results)
	}
}

// TestModelUploadCap answers a model document over maxUploadBytes with the
// same 413 payload_too_large row as the JSON routes.
func TestModelUploadCap(t *testing.T) {
	ts := testServer(t)
	body := io.LimitReader(zeros{}, maxUploadBytes+1)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/big", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	decode(t, resp, &env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != "payload_too_large" {
		t.Errorf("oversize model answered %d %q, want 413 payload_too_large", resp.StatusCode, env.Error.Code)
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}
