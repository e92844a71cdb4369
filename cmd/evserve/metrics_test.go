package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"evprop"
	"evprop/internal/obs"
)

// TestStatsFreshServer pins the observed == 0 guard: a stats scrape before
// any traffic must be valid JSON with zero latency fields. Pre-fix the
// average was 0/0 = NaN, which json.Marshal cannot encode at all.
func TestStatsFreshServer(t *testing.T) {
	ts := testServer(t)
	s := statsSnapshot(t, ts) // decode fails outright on a NaN body
	if s.Observed != 0 {
		t.Fatalf("fresh server observed %d", s.Observed)
	}
	if s.AvgLatencyUsec != 0 || s.MaxLatencyUsec != 0 ||
		s.P50LatencyUsec != 0 || s.P95LatencyUsec != 0 || s.P99LatencyUsec != 0 {
		t.Errorf("fresh server reports nonzero latency: %+v", s)
	}
	if s.LoadBalance != 1 {
		t.Errorf("fresh server load balance %v, want the neutral 1", s.LoadBalance)
	}
}

func TestStatsPercentiles(t *testing.T) {
	ts := testServer(t)
	for i := 0; i < 5; i++ {
		post(t, ts.URL+"/v1/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Lung"}})
	}
	s := statsSnapshot(t, ts)
	if s.Observed != 5 {
		t.Fatalf("observed %d, want 5", s.Observed)
	}
	if s.P50LatencyUsec <= 0 {
		t.Errorf("p50 %v", s.P50LatencyUsec)
	}
	if s.P50LatencyUsec > s.P95LatencyUsec || s.P95LatencyUsec > s.P99LatencyUsec {
		t.Errorf("percentiles not monotone: p50 %v p95 %v p99 %v",
			s.P50LatencyUsec, s.P95LatencyUsec, s.P99LatencyUsec)
	}
	if s.P99LatencyUsec > 2*s.MaxLatencyUsec+1 {
		t.Errorf("p99 %v far above max %v", s.P99LatencyUsec, s.MaxLatencyUsec)
	}
	// The scheduler gauges come from real propagations now.
	if s.LoadBalance < 1 {
		t.Errorf("load balance %v below 1", s.LoadBalance)
	}
	if s.SchedOverheadFrac < 0 || s.SchedOverheadFrac >= 1 {
		t.Errorf("scheduler overhead fraction %v outside [0, 1)", s.SchedOverheadFrac)
	}
}

// TestErrorCountedOncePerRequest pins the audited error semantics: every
// rejected request increments the counter exactly once, whichever path
// rejected it. Pre-fix, malformed JSON and wrong-method rejections were not
// counted at all.
func TestErrorCountedOncePerRequest(t *testing.T) {
	ts := testServer(t)
	errorsNow := func() int64 { return statsSnapshot(t, ts).Errors }
	if errorsNow() != 0 {
		t.Fatal("fresh server has errors")
	}
	// Malformed JSON → 400, one error.
	r, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{oops")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if got := errorsNow(); got != 1 {
		t.Errorf("after malformed JSON: errors %d, want 1", got)
	}
	// Wrong method → 405, one error.
	g, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if got := errorsNow(); got != 2 {
		t.Errorf("after wrong method: errors %d, want 2", got)
	}
	// Unknown variable → 400, one error (not two, despite the handler
	// passing through both runQuery and httpError).
	post(t, ts.URL+"/v1/query", queryRequest{Query: []string{"nope"}})
	if got := errorsNow(); got != 3 {
		t.Errorf("after unknown variable: errors %d, want 3", got)
	}
}

// TestBatchSubQueryFailuresNotHTTPErrors pins the other half of the audit: a
// batch that succeeds as an HTTP request does not bump the error counter for
// sub-queries that fail in place. Pre-fix each failing sub-query counted.
func TestBatchSubQueryFailuresNotHTTPErrors(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+"/v1/batch", batchRequest{Queries: []queryRequest{
		{Evidence: evprop.Evidence{"XRay": 1}},
		{Query: []string{"nope"}}, // fails in place
		{Query: []string{"also-nope"}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var b batchResponse
	decode(t, resp, &b)
	if b.Results[1].Error == "" || b.Results[2].Error == "" {
		t.Fatal("sub-query failures not reported in place")
	}
	if got := statsSnapshot(t, ts).Errors; got != 0 {
		t.Errorf("in-place batch failures counted as HTTP errors: %d", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	post(t, ts.URL+"/v1/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}})
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`evprop_http_requests_total{kind="query"} 1`,
		"evprop_http_errors_total 0",
		"evprop_propagations_total 1",
		"evprop_workers 2",
		"evprop_request_duration_seconds_count 1",
		`evprop_request_duration_seconds_bucket{le="+Inf"} 1`,
		"evprop_sched_runs_total 1",
		"evprop_sched_load_balance",
		"evprop_sched_overhead_fraction",
		`evprop_sched_kind_busy_seconds_total{kind="multiply"}`,
		"# TYPE evprop_request_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestPprofGating checks the profiling endpoints are absent by default and
// present when opted in.
func TestPprofGating(t *testing.T) {
	srv, err := newServer(evprop.Asia(), evprop.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	off := httptest.NewServer(srv.mux())
	t.Cleanup(off.Close)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable without -pprof: status %d", resp.StatusCode)
	}

	srv2, err := newServer(evprop.Asia(), evprop.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv2.pprofEnabled = true
	on := httptest.NewServer(srv2.mux())
	t.Cleanup(on.Close)
	resp2, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof index with -pprof: status %d", resp2.StatusCode)
	}
}

// TestPartitionPlanExposed checks that /v1/stats and /v1/metrics say which
// partition plan is in force and how many tasks it may split, so a
// partitions counter of 0 on a small model reads as the plan's choice: the
// automatic plan splits nothing on Asia's 4–8-entry tables, while an
// explicit δ follows the paper's rule and splits every larger task.
func TestPartitionPlanExposed(t *testing.T) {
	ts := testServer(t)
	post(t, ts.URL+"/v1/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Lung"}})
	s := statsSnapshot(t, ts)
	if want := (evprop.PartitionPlan{Mode: "auto"}); s.PartitionPlan != want {
		t.Errorf("auto partition_plan = %+v, want %+v", s.PartitionPlan, want)
	}
	for _, w := range s.Gauges.Workers {
		if w.Partitions != 0 {
			t.Errorf("a worker partitioned %d tasks under a plan that splits none", w.Partitions)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`evprop_sched_partition_plan_info{delta="0",mode="auto"} 1`,
		"evprop_sched_partition_splittable_tasks 0",
		"evprop_sched_partitions_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if problems := obs.LintExposition(bytes.NewReader(body)); len(problems) != 0 {
		t.Errorf("exposition lint: %v", problems)
	}

	explicit, _ := testServerFull(t, evprop.Options{Workers: 2, PartitionThreshold: 2})
	post(t, explicit.URL+"/v1/query", queryRequest{Evidence: evprop.Evidence{"XRay": 1}, Query: []string{"Lung"}})
	s = statsSnapshot(t, explicit)
	if p := s.PartitionPlan; p.Mode != "explicit" || p.Delta != 2 || p.SplittableTasks == 0 {
		t.Errorf("explicit partition_plan = %+v, want mode explicit, delta 2, splittable > 0", p)
	}
	parts := int64(0)
	for _, w := range s.Gauges.Workers {
		parts += w.Partitions
	}
	if parts == 0 {
		t.Error("explicit δ = 2 partitioned no task")
	}
}
