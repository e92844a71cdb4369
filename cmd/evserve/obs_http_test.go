package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"evprop"
)

// syncBuffer is a locked bytes.Buffer for capturing slog output: the access
// log is written after the handler returns, concurrently with the test
// goroutine reading it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForLogLine polls for an access-log line containing all substrings; the
// log record lands after the response is written, so a fresh read can race it.
func waitForLogLine(t *testing.T, buf *syncBuffer, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		sc := bufio.NewScanner(strings.NewReader(buf.String()))
	lines:
		for sc.Scan() {
			for _, w := range want {
				if !strings.Contains(sc.Text(), w) {
					continue lines
				}
			}
			return sc.Text()
		}
		if time.Now().After(deadline) {
			t.Fatalf("no log line with %q in:\n%s", want, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueryIDCorrelation is the acceptance path: one request's X-Query-ID
// header locates the matching flight-recorder entry and access-log line.
func TestQueryIDCorrelation(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	var buf syncBuffer
	srv.log = slog.New(slog.NewTextHandler(&buf, nil))

	resp := post(t, ts.URL+"/v1/query", queryRequest{
		Evidence: evprop.Evidence{"XRay": 1},
		Query:    []string{"Lung"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Query-ID")
	if !strings.HasPrefix(id, "q-") {
		t.Fatalf("X-Query-ID %q", id)
	}

	// The same ID indexes the flight recorder…
	fr, err := http.Get(ts.URL + "/v1/debug/flightrecorder?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Body.Close()
	var dump flightRecorderResponse
	decode(t, fr, &dump)
	if !dump.Recorder.Enabled {
		t.Fatal("recorder disabled")
	}
	if len(dump.Records) != 1 {
		t.Fatalf("%d records for id %q, want 1", len(dump.Records), id)
	}
	rec := dump.Records[0]
	if rec.Mode != "sum-product" || rec.EvidenceVars != 1 || rec.ElapsedUsec <= 0 {
		t.Errorf("record %+v", rec)
	}

	// …and the access log.
	line := waitForLogLine(t, &buf, "id="+id, "endpoint=/v1/query")
	for _, field := range []string{"status=200", "evidence_vars=1", "latency=", "sched_overhead_fraction="} {
		if !strings.Contains(line, field) {
			t.Errorf("access log line missing %q: %s", field, line)
		}
	}
}

// TestClientSuppliedQueryID checks the header is honored end to end.
func TestClientSuppliedQueryID(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	body := bytes.NewReader([]byte(`{"evidence":{"XRay":1},"query":["Lung"]}`))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Query-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Query-ID"); got != "trace-me-42" {
		t.Errorf("echoed ID %q", got)
	}
	var found bool
	for _, rec := range srv.defaultEngine().RecentQueries() {
		if rec.ID == "trace-me-42" {
			found = true
		}
	}
	if !found {
		t.Error("client-supplied ID not in flight recorder")
	}
}

// TestMPEKeepsQueryID: both propagations of an MPE request — sum-product
// for P(e) and the max-product one behind the assignment — run under the
// request's context, so the recorder files both under the client's ID.
func TestMPEKeepsQueryID(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2})
	body := bytes.NewReader([]byte(`{"evidence":{"XRay":1,"Smoke":0}}`))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/mpe", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Query-ID", "mpe-id-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mpe answered %d", resp.StatusCode)
	}
	fr, err := http.Get(ts.URL + "/v1/debug/flightrecorder?id=mpe-id-7")
	if err != nil {
		t.Fatal(err)
	}
	var dump flightRecorderResponse
	decode(t, fr, &dump)
	modes := map[string]bool{}
	for _, rec := range dump.Records {
		modes[rec.Mode] = true
	}
	if !modes["sum-product"] || !modes["max-product"] {
		t.Errorf("records under the MPE request's ID have modes %v, want sum-product and max-product", modes)
	}
}

// TestQueryIDValidation: a client-supplied ID that is oversized or outside
// the safe charset must not reach the log or the recorder — the server
// replaces it with a generated one.
func TestQueryIDValidation(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	// Control characters are rejected by net/http itself before the request
	// leaves the client, so only transport-legal but unsafe IDs appear here;
	// TestValidQueryID covers the rest.
	for _, bad := range []string{
		strings.Repeat("a", queryIDMaxLen+1),
		"spoof id",
		"непечатный",
	} {
		body := bytes.NewReader([]byte(`{"evidence":{"XRay":1},"query":["Lung"]}`))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Query-ID", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Query-ID")
		if got == bad || !strings.HasPrefix(got, "q-") {
			t.Errorf("ID %q was not replaced (response carries %q)", bad, got)
		}
		for _, rec := range srv.defaultEngine().RecentQueries() {
			if rec.ID == bad {
				t.Errorf("invalid ID %q reached the flight recorder", bad)
			}
		}
	}
}

func TestValidQueryID(t *testing.T) {
	for id, want := range map[string]bool{
		"trace-me-42":                        true,
		"q-9f2c41d3-17":                      true,
		"A.b_c:D-9":                          true,
		strings.Repeat("x", queryIDMaxLen):   true,
		"":                                   false,
		strings.Repeat("x", queryIDMaxLen+1): false,
		"has space":                          false,
		"new\nline":                          false,
		"q/slash":                            false,
	} {
		if got := validQueryID(id); got != want {
			t.Errorf("validQueryID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestFlightRecorderEndpointSlowCapture pins the slow threshold so every
// propagation is captured with its full scheduler trace, then reads the dump
// over HTTP.
func TestFlightRecorderEndpointSlowCapture(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2, SlowQueryThreshold: time.Nanosecond})
	post(t, ts.URL+"/v1/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	fr, err := http.Get(ts.URL + "/v1/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Body.Close()
	var dump flightRecorderResponse
	decode(t, fr, &dump)
	if dump.Recorder.SlowCaptured == 0 || len(dump.Slow) == 0 {
		t.Fatalf("no slow captures: %+v", dump.Recorder)
	}
	c := dump.Slow[0]
	if !c.Record.Slow || len(c.Trace) == 0 || len(c.BusyPerWorkerUsec) != 2 {
		t.Errorf("capture %+v", c)
	}
	// POST is rejected.
	resp := post(t, ts.URL+"/v1/debug/flightrecorder", map[string]any{})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d", resp.StatusCode)
	}
}

// TestStatsWindow checks the 60-second window rides along in /v1/stats and
// /v1/metrics.
func TestStatsWindow(t *testing.T) {
	ts, _ := testServerFull(t, evprop.Options{Workers: 2})
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	}
	post(t, ts.URL+"/v1/query", "not an object") // one 400 for the error rate

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	decode(t, resp, &st)
	w := st.Window
	if w.Seconds != 60 || len(w.QPSSeries) != 60 {
		t.Fatalf("window shape %+v", w)
	}
	if w.Requests != 4 || w.Errors != 1 {
		t.Errorf("window requests %d errors %d", w.Requests, w.Errors)
	}
	if w.ErrorRate != 0.25 || w.QPS <= 0 || w.P50LatencyUsec <= 0 {
		t.Errorf("window rates %+v", w)
	}
	if w.LoadBalance < 1 {
		t.Errorf("window load balance %v", w.LoadBalance)
	}
	var tail int64
	for _, n := range w.QPSSeries {
		tail += n
	}
	if tail != 4 {
		t.Errorf("series sums to %d, want 4", tail)
	}

	met, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer met.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, met.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, metric := range []string{
		"evprop_window_qps", "evprop_window_error_rate",
		"evprop_window_latency_seconds{quantile=\"0.99\"}",
		"evprop_flightrecorder_recorded_total",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics missing %s", metric)
		}
	}
}

// TestRequestTimeout sets a deadline so small the propagation cannot finish;
// the engine must observe it and the server map it to 504.
func TestRequestTimeout(t *testing.T) {
	ts, srv := testServerFull(t, evprop.Options{Workers: 2})
	srv.timeout = time.Nanosecond
	resp := post(t, ts.URL+"/v1/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
}

// TestServeGracefulShutdown drives the real serve loop: cancel the context
// (as SIGINT would) and expect a clean, prompt return after in-flight
// requests drain.
func TestServeGracefulShutdown(t *testing.T) {
	srv, err := newServer(evprop.Asia(), evprop.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, srv.log) }()

	url := "http://" + ln.Addr().String()
	resp := post(t, url+"/v1/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after cancel")
	}
	srv.close()
}
