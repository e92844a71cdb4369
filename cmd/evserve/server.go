package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evprop"
	"evprop/internal/audit"
	"evprop/internal/obs"
	"evprop/internal/obs/trace"
	"evprop/internal/registry"
)

// defaultModel is the model the single-model routes (versioned and
// legacy) alias onto; a server always tries to serve one.
const defaultModel = "default"

// server routes HTTP requests onto a registry of compiled models. Handlers
// run lock-free: every request pins its model's current version with one
// atomic acquire, propagates on that engine, and releases it — a version
// swapped out mid-request drains gracefully under the requests still
// holding it.
type server struct {
	// reg holds every model; compiles happen in the background and publish
	// by atomic pointer swap.
	reg *registry.Registry
	// opts is the compile-options template shared by every model.
	opts  evprop.Options
	stats serverStats
	// perModel maps model name → its request counters and traffic window.
	// Entries are created lazily on first use and dropped on model delete.
	perModel sync.Map // map[string]*modelStats
	// log receives one access-log record per request (see instrument).
	log *slog.Logger
	// window aggregates the last 60 seconds of traffic for /v1/stats,
	// across all models; each model also has its own window in perModel.
	window *obs.Window
	// timeout, when non-zero, bounds every request with a deadline that the
	// engine observes mid-propagation.
	timeout time.Duration
	// maxInflight, when non-zero, bounds concurrently admitted
	// propagating requests; excess requests get 429 overloaded.
	maxInflight int64
	inflight    atomic.Int64
	// pprofEnabled wires net/http/pprof under /debug/pprof/ (opt-in via
	// the -pprof flag: profiling endpoints expose internals and should not
	// be on by default).
	pprofEnabled bool
	// co coalesces same-model same-evidence /v1/batch sub-queries inside a
	// micro-batch window (the -batch-window flag); nil when the window is
	// off.
	co *coalescer
	// cacheOn mirrors the engines' cache configuration so the hot path can
	// skip cache accounting without asking an engine each time.
	cacheOn bool
	// aud, when non-nil, receives one durable audit record per completed
	// query/MPE (the -audit-dir pipeline; see audit.go). audStore is its
	// file-segment backend and auditDir the configured directory.
	aud      *audit.Writer
	audStore *audit.FileStore
	auditDir string
	// tracer owns distributed tracing (the -trace flags): per-request span
	// arenas, tail sampling into the debug store, optional OTLP export. nil
	// when tracing is off — every consumer nil-checks.
	tracer *trace.Tracer
	// sampler takes the 1 s snapshots behind /v1/stream; started is the
	// uptime epoch reported by /v1/healthz and every snapshot.
	sampler *obs.Sampler[streamSnapshot]
	started time.Time
	// ready gates /v1/readyz: false until the listener is up, false again
	// once drain begins. drain is closed by beginDrain (via drainOnce) so
	// every in-flight /v1/stream handler unblocks during graceful shutdown.
	ready     atomic.Bool
	drain     chan struct{}
	drainOnce sync.Once
}

// serverStats aggregates request counters and propagation latency with
// atomics and a lock-free histogram so concurrent handlers never serialize.
type serverStats struct {
	queries atomic.Int64
	batches atomic.Int64
	mpes    atomic.Int64
	// legacy counts requests through the deprecated unversioned aliases
	// (/query, /mpe, /dsep, /model), so operators can measure remaining
	// pre-/v1 traffic before removal.
	legacy atomic.Int64
	// errors counts HTTP error responses, incremented exactly once per
	// request inside writeErrorCode (the single choke point). Per-query
	// failures inside a /v1/batch body are reported in place and are not
	// HTTP errors.
	errors  atomic.Int64
	latency obs.Histogram
}

func (st *serverStats) observe(d time.Duration, traceID string) {
	st.latency.ObserveExemplar(d, traceID)
}

// traceIDFrom returns the hex trace ID of the request's active span, "" for
// untraced requests. Latency observations pass it down so the histograms'
// OpenMetrics exemplars link slow buckets to their traces.
func traceIDFrom(ctx context.Context) string {
	if id := trace.FromContext(ctx).TraceID(); id.IsValid() {
		return id.String()
	}
	return ""
}

// modelStats is one model's slice of the serving counters: request counts
// by kind, error count, latency histogram, and a 60 s traffic window.
// Stats outlive version swaps (they belong to the model, not the version)
// and are dropped when the model is deleted.
type modelStats struct {
	queries atomic.Int64
	batches atomic.Int64
	mpes    atomic.Int64
	errors  atomic.Int64
	latency obs.Histogram
	window  *obs.Window
}

// modelStatsFor returns the named model's stats, creating them on first
// use.
func (s *server) modelStatsFor(name string) *modelStats {
	if v, ok := s.perModel.Load(name); ok {
		return v.(*modelStats)
	}
	v, _ := s.perModel.LoadOrStore(name, &modelStats{window: obs.NewWindow()})
	return v.(*modelStats)
}

// newMultiServer builds a server over an empty registry; models are added
// with addModel / the registry's LoadDir.
func newMultiServer(opts evprop.Options) *server {
	s := &server{
		reg:     registry.New(opts),
		opts:    opts,
		log:     slog.Default(),
		window:  obs.NewWindow(),
		cacheOn: opts.CacheSize > 0,
		started: time.Now(),
		drain:   make(chan struct{}),
	}
	s.sampler = obs.NewSampler(streamInterval, 60, s.snapshotNow)
	return s
}

// newServer builds a server whose "default" model is the given network —
// the single-model boot path and the test constructor.
func newServer(net *evprop.Network, opts evprop.Options) (*server, error) {
	s := newMultiServer(opts)
	if err := s.reg.LoadSync(defaultModel, registry.LiteralSource(net, "boot")); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close releases every model's engine; for shutdown and failed boots.
func (s *server) close() { s.reg.Close() }

// defaultEngine returns the default model's live engine, nil when absent.
// evprop.Engine methods are nil-safe, so stats paths use it directly.
func (s *server) defaultEngine() *evprop.Engine {
	if v, err := s.reg.Current(defaultModel); err == nil {
		return v.Engine
	}
	return nil
}

// mux routes the model-scoped /v1 API. Single-model routes (/v1/query,
// /v1/model, …) alias onto the "default" model, and the original
// unversioned paths remain too, marked with Deprecation/Sunset headers.
// Every route goes through instrument, so each request carries a query ID
// and emits one access-log record; only the pprof endpoints, the stream
// and the health probes bypass it.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		m.HandleFunc(pattern, s.instrument(endpoint, h))
	}
	// Model management.
	route("/v1/models", "/v1/models", s.handleModels)
	route("/v1/models/{name}", "/v1/models/{name}", s.handleModelByName)
	route("/v1/models/{name}/reload", "/v1/models/{name}/reload", s.handleModelReload)
	route("/v1/models/{name}/stats", "/v1/models/{name}/stats", s.handleModelStats)
	// Model-scoped queries.
	route("/v1/models/{name}/query", "/v1/models/{name}/query", s.handleQuery)
	route("/v1/models/{name}/batch", "/v1/models/{name}/batch", s.handleBatch)
	route("/v1/models/{name}/mpe", "/v1/models/{name}/mpe", s.handleMPE)
	route("/v1/models/{name}/dsep", "/v1/models/{name}/dsep", s.handleDSep)
	// Single-model aliases onto "default" — the pre-registry /v1 API,
	// fully supported.
	route("/v1/model", "/v1/model", s.handleModelSchema)
	route("/v1/query", "/v1/query", s.handleQuery)
	route("/v1/batch", "/v1/batch", s.handleBatch)
	route("/v1/mpe", "/v1/mpe", s.handleMPE)
	route("/v1/dsep", "/v1/dsep", s.handleDSep)
	// Unversioned legacy aliases: still served, but deprecated (headers +
	// the legacy_requests counter announce the sunset).
	route("/model", "/model", s.deprecated(s.handleModelSchema))
	route("/query", "/query", s.deprecated(s.handleQuery))
	route("/mpe", "/mpe", s.deprecated(s.handleMPE))
	route("/dsep", "/dsep", s.deprecated(s.handleDSep))
	// Introspection.
	route("/v1/stats", "/v1/stats", s.handleStats)
	route("/v1/metrics", "/v1/metrics", s.handleMetrics)
	route("/v1/audit", "/v1/audit", s.handleAudit)
	route("/v1/debug/flightrecorder", "/v1/debug/flightrecorder", s.handleFlightRecorder)
	route("/v1/debug/trace", "/v1/debug/trace", s.handleTrace)
	// The stream and the health probes stay outside instrument: probes fire
	// every few seconds and a stream lives for minutes — folding either into
	// the QPS window or the access log would drown the real traffic signal.
	m.HandleFunc("/v1/stream", s.handleStream)
	m.HandleFunc("/v1/healthz", s.handleHealthz)
	m.HandleFunc("/v1/readyz", s.handleReadyz)
	if s.pprofEnabled {
		m.HandleFunc("/debug/pprof/", pprof.Index)
		m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		m.HandleFunc("/debug/pprof/profile", pprof.Profile)
		m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return m
}

// modelFor names the request's model: the {name} path segment on scoped
// routes, the default model on alias routes.
func modelFor(r *http.Request) string {
	if name := r.PathValue("name"); name != "" {
		return name
	}
	return defaultModel
}

// acquire pins the request's model version and notes the model into the
// request annotations. On failure it has already answered the request.
func (s *server) acquire(w http.ResponseWriter, r *http.Request) (*registry.Version, func(), *modelStats, bool) {
	name := modelFor(r)
	v, release, err := s.reg.Acquire(name)
	if err != nil {
		s.writeError(w, r, err)
		return nil, nil, nil, false
	}
	ms := s.modelStatsFor(name)
	reqInfoFrom(r.Context()).noteModel(name, ms)
	return v, release, ms, true
}

type modelVariable struct {
	Name   string `json:"name"`
	States int    `json:"states"`
}

// modelResponse is the GET /v1/models/{name} (and /v1/model alias) body:
// the registry's lifecycle info plus the variable schema.
type modelResponse struct {
	registry.Info
	Variables []modelVariable `json:"variables"`
}

func modelSchema(info registry.Info, net *evprop.Network) modelResponse {
	resp := modelResponse{Info: info}
	for _, name := range net.Variables() {
		resp.Variables = append(resp.Variables, modelVariable{Name: name, States: net.States(name)})
	}
	return resp
}

// handleModelSchema answers the single-model schema aliases (GET
// /v1/model, GET /model) against the default model.
func (s *server) handleModelSchema(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	v, release, _, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	info, _ := s.modelInfo(modelFor(r))
	s.writeJSON(w, modelSchema(info, v.Net))
}

// modelInfo finds one model's registry Info.
func (s *server) modelInfo(name string) (registry.Info, bool) {
	for _, info := range s.reg.List() {
		if info.Name == name {
			return info, true
		}
	}
	return registry.Info{Name: name}, false
}

type queryRequest struct {
	Evidence evprop.Evidence `json:"evidence"`
	Query    []string        `json:"query"`
}

type queryResponse struct {
	PEvidence  float64              `json:"p_evidence"`
	Posteriors map[string][]float64 `json:"posteriors"`
	// Model and Version name the engine build that answered, so clients
	// can detect hot reloads.
	Model   string `json:"model,omitempty"`
	Version int64  `json:"version,omitempty"`
}

// runQuery answers one query on the pinned version with exactly one
// evidence propagation: P(e) and the posteriors both derive from the same
// QueryResult.
func (s *server) runQuery(ctx context.Context, v *registry.Version, ms *modelStats, req queryRequest) (*queryResponse, error) {
	start := time.Now()
	ri := reqInfoFrom(ctx)
	ri.noteQuery(len(req.Evidence))
	res, err := v.Engine.PropagateContext(ctx, req.Evidence)
	if err != nil {
		s.auditQuery(ctx, v, req, nil, false, time.Since(start), err)
		return nil, err
	}
	defer res.Close()
	ri.noteRun(res.Metrics())
	if s.cacheOn {
		ri.noteCache(res.Cached())
	}
	resp := &queryResponse{PEvidence: res.ProbabilityOfEvidence(), Posteriors: map[string][]float64{}}
	if resp.PEvidence > 0 {
		post, err := res.Posteriors(req.Query...)
		if err != nil {
			s.auditQuery(ctx, v, req, nil, res.Cached(), time.Since(start), err)
			return nil, err
		}
		resp.Posteriors = post
	}
	elapsed := time.Since(start)
	tid := traceIDFrom(ctx)
	s.stats.observe(elapsed, tid)
	ms.latency.ObserveExemplar(elapsed, tid)
	s.auditQuery(ctx, v, req, resp, res.Cached(), elapsed, nil)
	return resp, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.inflight.Add(-1)
	v, release, ms, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	s.stats.queries.Add(1)
	ms.queries.Add(1)
	resp, err := s.runQuery(r.Context(), v, ms, req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp.Model, resp.Version = modelFor(r), v.ID
	s.writeJSON(w, resp)
}

// admit applies -max-inflight admission control to the propagating
// routes. On rejection it has already answered 429.
func (s *server) admit(w http.ResponseWriter, r *http.Request) bool {
	if n := s.inflight.Add(1); s.maxInflight > 0 && n > s.maxInflight {
		s.inflight.Add(-1)
		s.writeError(w, r, fmt.Errorf("%w: %d in flight", errOverloaded, s.maxInflight))
		return false
	}
	return true
}

type batchRequest struct {
	Queries []queryRequest `json:"queries"`
}

type batchResponse struct {
	Results []batchResult `json:"results"`
	// Model and Version name the engine build the whole batch ran on (a
	// batch pins one version — sub-queries are never split across a hot
	// reload).
	Model   string `json:"model,omitempty"`
	Version int64  `json:"version,omitempty"`
}

// batchResult is one query's outcome; exactly one of Error or the query
// fields is meaningful. Failures are reported in place so one bad query
// does not void its siblings.
type batchResult struct {
	PEvidence  float64              `json:"p_evidence,omitempty"`
	Posteriors map[string][]float64 `json:"posteriors,omitempty"`
	Error      string               `json:"error,omitempty"`
}

// handleBatch answers many queries in one round trip, propagating them
// concurrently on the batch's pinned version. With -batch-window set,
// sub-queries sharing an evidence signature are coalesced into one
// propagation (see coalesce.go); otherwise each sub-query propagates
// independently.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.inflight.Add(-1)
	v, release, ms, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	s.stats.batches.Add(1)
	ms.batches.Add(1)
	name := modelFor(r)
	run := s.runQuery
	if s.co != nil {
		run = func(ctx context.Context, v *registry.Version, ms *modelStats, q queryRequest) (*queryResponse, error) {
			return s.coalescedQuery(ctx, name, v, ms, q)
		}
	}
	results := make([]batchResult, len(req.Queries))
	var wg sync.WaitGroup
	for i, q := range req.Queries {
		wg.Add(1)
		go func(i int, q queryRequest) {
			defer wg.Done()
			// Each sub-query runs under its own child span, so the trace
			// shows the batch fanning out (and coalesced riders link to
			// their leader's item; see coalesce.go).
			isp := trace.FromContext(r.Context()).StartChild("batch.item",
				trace.Int("batch.index", int64(i)))
			ctx := trace.ContextWith(r.Context(), isp)
			resp, err := run(ctx, v, ms, q)
			if err != nil {
				isp.Fail(err.Error())
				isp.End()
				results[i] = batchResult{Error: err.Error()}
				return
			}
			isp.End()
			results[i] = batchResult{PEvidence: resp.PEvidence, Posteriors: resp.Posteriors}
		}(i, q)
	}
	wg.Wait()
	s.writeJSON(w, batchResponse{Results: results, Model: name, Version: v.ID})
}

type mpeRequest struct {
	Evidence evprop.Evidence `json:"evidence"`
}

type mpeResponse struct {
	Assignment  map[string]int `json:"assignment"`
	Probability float64        `json:"probability"`
	Model       string         `json:"model,omitempty"`
	Version     int64          `json:"version,omitempty"`
}

func (s *server) handleMPE(w http.ResponseWriter, r *http.Request) {
	var req mpeRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.inflight.Add(-1)
	v, release, ms, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	s.stats.mpes.Add(1)
	ms.mpes.Add(1)
	start := time.Now()
	ri := reqInfoFrom(r.Context())
	ri.noteQuery(len(req.Evidence))
	res, err := v.Engine.PropagateContext(r.Context(), req.Evidence)
	if err != nil {
		s.auditMPE(r.Context(), v, req.Evidence, nil, 0, time.Since(start), err)
		s.writeError(w, r, err)
		return
	}
	defer res.Close()
	ri.noteRun(res.Metrics())
	assignment, p, err := res.MPE()
	if err != nil {
		s.auditMPE(r.Context(), v, req.Evidence, nil, 0, time.Since(start), err)
		s.writeError(w, r, err)
		return
	}
	elapsed := time.Since(start)
	tid := traceIDFrom(r.Context())
	s.stats.observe(elapsed, tid)
	ms.latency.ObserveExemplar(elapsed, tid)
	s.auditMPE(r.Context(), v, req.Evidence, assignment, p, elapsed, nil)
	s.writeJSON(w, mpeResponse{Assignment: assignment, Probability: p, Model: modelFor(r), Version: v.ID})
}

type dsepRequest struct {
	X []string `json:"x"`
	Y []string `json:"y"`
	Z []string `json:"z"`
}

type dsepResponse struct {
	Separated bool `json:"separated"`
}

func (s *server) handleDSep(w http.ResponseWriter, r *http.Request) {
	var req dsepRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	v, release, _, ok := s.acquire(w, r)
	if !ok {
		return
	}
	defer release()
	sep, err := v.Net.DSeparated(req.X, req.Y, req.Z)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, dsepResponse{Separated: sep})
}

type statsResponse struct {
	Queries int64 `json:"queries"`
	Batches int64 `json:"batches"`
	MPEs    int64 `json:"mpes"`
	Errors  int64 `json:"errors"`
	// LegacyRequests counts traffic on the deprecated unversioned aliases.
	LegacyRequests int64   `json:"legacy_requests"`
	Propagations   int64   `json:"propagations"`
	Workers        int     `json:"workers"`
	Scheduler      string  `json:"scheduler"`
	Observed       int64   `json:"observed"`
	AvgLatencyUsec float64 `json:"avg_latency_usec"`
	MaxLatencyUsec float64 `json:"max_latency_usec"`
	P50LatencyUsec float64 `json:"p50_latency_usec"`
	P95LatencyUsec float64 `json:"p95_latency_usec"`
	P99LatencyUsec float64 `json:"p99_latency_usec"`
	// LoadBalance and SchedOverheadFrac are the default model's most
	// recent propagation's Fig. 8 gauges (max/mean per-worker busy time;
	// scheduling fraction of total worker time).
	LoadBalance       float64 `json:"load_balance"`
	SchedOverheadFrac float64 `json:"sched_overhead_fraction"`
	// PartitionPlan is the default model's δ-partition plan: its mode and
	// how many tasks it allows to split, which explains a partitions
	// counter that stays 0 on a model with small tables.
	PartitionPlan evprop.PartitionPlan `json:"partition_plan"`
	// Window covers only the last 60 seconds of traffic, where the fields
	// above aggregate over the whole process lifetime.
	Window windowStats `json:"window"`
	// Cache reports the default model's shared-evidence result cache plus
	// the server-side batch coalescer; per-model caches are in Models and
	// /v1/models/{name}/stats.
	Cache cacheStats `json:"cache"`
	// Gauges is the default model's live scheduler surface (GL depth,
	// active runs, per-worker state/queue/steal gauges) — the same data
	// /v1/stream pushes.
	Gauges evprop.SchedulerGauges `json:"scheduler_gauges"`
	// Models summarizes every registered model: lifecycle state, version,
	// and per-model request counters.
	Models []modelStatsSummary `json:"models"`
	// Audit reports the durable query-audit pipeline (-audit-dir): spill,
	// drop and flush counters plus on-disk segment totals.
	Audit auditStats `json:"audit"`
	// Trace reports the distributed-tracing pipeline: traced requests,
	// tail-sampling keeps, store fill, and OTLP export counters.
	Trace traceStatsSummary `json:"trace"`
}

// modelStatsSummary is one model's row in /v1/stats.
type modelStatsSummary struct {
	registry.Info
	Queries      int64 `json:"queries"`
	Batches      int64 `json:"batches"`
	MPEs         int64 `json:"mpes"`
	Errors       int64 `json:"errors"`
	Propagations int64 `json:"propagations"`
	CacheHits    int64 `json:"cache_hits"`
}

// cacheStats is the engine's cache snapshot plus the server-side coalescer
// counter (sub-queries answered by another sub-query's window-mate run).
type cacheStats struct {
	evprop.CacheStats
	BatchWindowUsec float64 `json:"batch_window_usec"`
	BatchCoalesced  int64   `json:"batch_coalesced"`
}

func (s *server) cacheStats() cacheStats {
	cs := cacheStats{CacheStats: s.defaultEngine().CacheStats()}
	if s.co != nil {
		cs.BatchWindowUsec = float64(s.co.window.Nanoseconds()) / 1e3
		cs.BatchCoalesced = s.co.coalesced.Load()
	}
	return cs
}

// windowStats is the JSON shape of the 60-second sliding window.
type windowStats struct {
	Seconds        int     `json:"seconds"`
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	QPS            float64 `json:"qps"`
	ErrorRate      float64 `json:"error_rate"`
	P50LatencyUsec float64 `json:"p50_latency_usec"`
	P99LatencyUsec float64 `json:"p99_latency_usec"`
	LoadBalance    float64 `json:"load_balance"`
	// QPSSeries is per-second request counts, oldest first; the last entry
	// is the current (incomplete) second.
	QPSSeries []int64 `json:"qps_series"`
	// CacheHitRate is the result-cache hit fraction over the window, and
	// CacheHitRateSeries its per-second trajectory aligned with QPSSeries
	// (both all-zero when the cache is off or idle).
	CacheHitRate       float64   `json:"cache_hit_rate"`
	CacheHitRateSeries []float64 `json:"cache_hit_rate_series"`
}

func toWindowStats(ws obs.WindowSnapshot) windowStats {
	return windowStats{
		Seconds:            ws.Seconds,
		Requests:           ws.Requests,
		Errors:             ws.Errors,
		QPS:                ws.QPS,
		ErrorRate:          ws.ErrorRate,
		P50LatencyUsec:     float64(ws.P50.Nanoseconds()) / 1e3,
		P99LatencyUsec:     float64(ws.P99.Nanoseconds()) / 1e3,
		LoadBalance:        ws.LoadBalance,
		QPSSeries:          ws.QPSSeries,
		CacheHitRate:       ws.CacheHitRate,
		CacheHitRateSeries: ws.CacheHitRateSeries,
	}
}

func (s *server) windowStats() windowStats { return toWindowStats(s.window.Snapshot()) }

// propagationsTotal sums completed scheduler invocations across every
// live model version.
func (s *server) propagationsTotal() int64 {
	var total int64
	for _, v := range s.reg.CurrentVersions() {
		total += v.Engine.Stats().Propagations
	}
	return total
}

// modelSummaries builds the per-model stats rows, sorted by name.
func (s *server) modelSummaries() []modelStatsSummary {
	infos := s.reg.List()
	versions := s.reg.CurrentVersions()
	out := make([]modelStatsSummary, 0, len(infos))
	for _, info := range infos {
		row := modelStatsSummary{Info: info}
		if ms, ok := s.perModel.Load(info.Name); ok {
			m := ms.(*modelStats)
			row.Queries = m.queries.Load()
			row.Batches = m.batches.Load()
			row.MPEs = m.mpes.Load()
			row.Errors = m.errors.Load()
		}
		if v, ok := versions[info.Name]; ok {
			row.Propagations = v.Engine.Stats().Propagations
			row.CacheHits = v.Engine.CacheStats().Hits
		}
		out = append(out, row)
	}
	return out
}

// handleStats reports request counters, per-model summaries, the default
// model's scheduler surface, and propagation latency aggregates. Every
// latency field derives from the histogram, and the observed == 0 case
// yields plain zeros — never a 0/0 NaN, which would be invalid JSON.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	eng := s.defaultEngine()
	es := eng.Stats()
	sr := eng.SchedulerReport()
	if es.Workers == 0 {
		// No default model: borrow the shared configuration from any live
		// version so workers/scheduler stay meaningful.
		for _, v := range s.reg.CurrentVersions() {
			es.Workers = v.Engine.Stats().Workers
			es.Scheduler = v.Engine.Stats().Scheduler
			break
		}
	}
	h := &s.stats.latency
	resp := statsResponse{
		Queries:           s.stats.queries.Load(),
		Batches:           s.stats.batches.Load(),
		MPEs:              s.stats.mpes.Load(),
		Errors:            s.stats.errors.Load(),
		LegacyRequests:    s.stats.legacy.Load(),
		Propagations:      s.propagationsTotal(),
		Workers:           es.Workers,
		Scheduler:         es.Scheduler,
		Observed:          h.Count(),
		LoadBalance:       sr.LastLoadBalance,
		SchedOverheadFrac: sr.LastOverheadFraction,
		PartitionPlan:     sr.Plan,
		Window:            s.windowStats(),
		Cache:             s.cacheStats(),
		Gauges:            eng.SchedulerGauges(),
		Models:            s.modelSummaries(),
		Audit:             s.auditStats(),
		Trace:             s.traceStats(),
	}
	if resp.Observed > 0 {
		resp.AvgLatencyUsec = float64(h.Mean()) / 1e3
		resp.MaxLatencyUsec = float64(h.Max()) / 1e3
		resp.P50LatencyUsec = float64(h.Quantile(0.50)) / 1e3
		resp.P95LatencyUsec = float64(h.Quantile(0.95)) / 1e3
		resp.P99LatencyUsec = float64(h.Quantile(0.99)) / 1e3
	}
	s.writeJSON(w, resp)
}

// handleModelStats serves GET /v1/models/{name}/stats: the model's own
// request counters, latency, window, cache and scheduler gauges.
func (s *server) handleModelStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	name := modelFor(r)
	info, ok := s.modelInfo(name)
	if !ok {
		s.writeError(w, r, fmt.Errorf("%w: %q", registry.ErrNotFound, name))
		return
	}
	ms := s.modelStatsFor(name)
	resp := modelStatsResponse{
		Info:    info,
		Queries: ms.queries.Load(),
		Batches: ms.batches.Load(),
		MPEs:    ms.mpes.Load(),
		Errors:  ms.errors.Load(),
		Window:  toWindowStats(ms.window.Snapshot()),
	}
	if h := &ms.latency; h.Count() > 0 {
		resp.Observed = h.Count()
		resp.AvgLatencyUsec = float64(h.Mean()) / 1e3
		resp.P50LatencyUsec = float64(h.Quantile(0.50)) / 1e3
		resp.P99LatencyUsec = float64(h.Quantile(0.99)) / 1e3
	}
	if v, err := s.reg.Current(name); err == nil {
		resp.Propagations = v.Engine.Stats().Propagations
		resp.Cache = v.Engine.CacheStats()
		resp.Gauges = v.Engine.SchedulerGauges()
	}
	s.writeJSON(w, resp)
}

// modelStatsResponse is the GET /v1/models/{name}/stats body.
type modelStatsResponse struct {
	registry.Info
	Queries        int64                  `json:"queries"`
	Batches        int64                  `json:"batches"`
	MPEs           int64                  `json:"mpes"`
	Errors         int64                  `json:"errors"`
	Propagations   int64                  `json:"propagations"`
	Observed       int64                  `json:"observed"`
	AvgLatencyUsec float64                `json:"avg_latency_usec"`
	P50LatencyUsec float64                `json:"p50_latency_usec"`
	P99LatencyUsec float64                `json:"p99_latency_usec"`
	Window         windowStats            `json:"window"`
	Cache          evprop.CacheStats      `json:"cache"`
	Gauges         evprop.SchedulerGauges `json:"scheduler_gauges"`
}

// handleMetrics serves the Prometheus text exposition: request counters,
// the latency histogram, the default model's scheduler observability, and
// per-model labeled series for every registered model.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteHeader(w, "evprop_http_requests_total", "HTTP requests by kind.", "counter")
	obs.WriteSample(w, "evprop_http_requests_total", map[string]string{"kind": "query"}, float64(s.stats.queries.Load()))
	obs.WriteSample(w, "evprop_http_requests_total", map[string]string{"kind": "batch"}, float64(s.stats.batches.Load()))
	obs.WriteSample(w, "evprop_http_requests_total", map[string]string{"kind": "mpe"}, float64(s.stats.mpes.Load()))
	obs.WriteHeader(w, "evprop_http_errors_total", "HTTP error responses.", "counter")
	obs.WriteSample(w, "evprop_http_errors_total", nil, float64(s.stats.errors.Load()))
	obs.WriteHeader(w, "evprop_legacy_requests_total", "Requests through the deprecated unversioned aliases.", "counter")
	obs.WriteSample(w, "evprop_legacy_requests_total", nil, float64(s.stats.legacy.Load()))
	eng := s.defaultEngine()
	es := eng.Stats()
	obs.WriteHeader(w, "evprop_propagations_total", "Completed scheduler invocations across all models.", "counter")
	obs.WriteSample(w, "evprop_propagations_total", nil, float64(s.propagationsTotal()))
	obs.WriteHeader(w, "evprop_workers", "Configured propagation workers per model.", "gauge")
	obs.WriteSample(w, "evprop_workers", nil, float64(es.Workers))
	s.stats.latency.WritePrometheus(w, "evprop_request_duration_seconds", "End-to-end propagation latency of successful requests.")
	eng.WriteSchedulerMetrics(w, "evprop_sched")
	ws := s.window.Snapshot()
	obs.WriteHeader(w, "evprop_window_requests", "Requests in the last 60 seconds.", "gauge")
	obs.WriteSample(w, "evprop_window_requests", nil, float64(ws.Requests))
	obs.WriteHeader(w, "evprop_window_qps", "Mean requests/second over the last 60 seconds.", "gauge")
	obs.WriteSample(w, "evprop_window_qps", nil, ws.QPS)
	obs.WriteHeader(w, "evprop_window_error_rate", "Error fraction over the last 60 seconds.", "gauge")
	obs.WriteSample(w, "evprop_window_error_rate", nil, ws.ErrorRate)
	obs.WriteHeader(w, "evprop_window_latency_seconds", "Latency quantiles over the last 60 seconds.", "gauge")
	obs.WriteSample(w, "evprop_window_latency_seconds", map[string]string{"quantile": "0.5"}, ws.P50.Seconds())
	obs.WriteSample(w, "evprop_window_latency_seconds", map[string]string{"quantile": "0.99"}, ws.P99.Seconds())
	obs.WriteHeader(w, "evprop_window_load_balance", "Mean load-balance factor over the last 60 seconds.", "gauge")
	obs.WriteSample(w, "evprop_window_load_balance", nil, ws.LoadBalance)
	cs := s.cacheStats()
	obs.WriteHeader(w, "evprop_cache_hits_total", "Result-cache hits (default model).", "counter")
	obs.WriteSample(w, "evprop_cache_hits_total", nil, float64(cs.Hits))
	obs.WriteHeader(w, "evprop_cache_misses_total", "Result-cache misses (default model).", "counter")
	obs.WriteSample(w, "evprop_cache_misses_total", nil, float64(cs.Misses))
	obs.WriteHeader(w, "evprop_cache_collapsed_total", "Queries collapsed onto another caller's in-flight propagation (default model).", "counter")
	obs.WriteSample(w, "evprop_cache_collapsed_total", nil, float64(cs.Collapsed))
	obs.WriteHeader(w, "evprop_cache_entries", "Result-cache entries currently held (default model).", "gauge")
	obs.WriteSample(w, "evprop_cache_entries", nil, float64(cs.Entries))
	obs.WriteHeader(w, "evprop_cache_capacity", "Result-cache configured capacity (default model).", "gauge")
	obs.WriteSample(w, "evprop_cache_capacity", nil, float64(cs.Capacity))
	obs.WriteHeader(w, "evprop_batch_coalesced_total", "Batch sub-queries coalesced into a window-mate's propagation.", "counter")
	obs.WriteSample(w, "evprop_batch_coalesced_total", nil, float64(cs.BatchCoalesced))
	obs.WriteHeader(w, "evprop_window_cache_hit_rate", "Result-cache hit fraction over the last 60 seconds.", "gauge")
	obs.WriteSample(w, "evprop_window_cache_hit_rate", nil, ws.CacheHitRate)
	fs := eng.FlightRecorderStats()
	obs.WriteHeader(w, "evprop_flightrecorder_recorded_total", "Propagations seen by the flight recorder (default model).", "counter")
	obs.WriteSample(w, "evprop_flightrecorder_recorded_total", nil, float64(fs.Recorded))
	obs.WriteHeader(w, "evprop_flightrecorder_slow_total", "Slow-query captures taken by the flight recorder (default model).", "counter")
	obs.WriteSample(w, "evprop_flightrecorder_slow_total", nil, float64(fs.SlowCaptured))
	obs.WriteHeader(w, "evprop_flightrecorder_slow_threshold_seconds", "Current slow-query capture threshold (0 while calibrating).", "gauge")
	obs.WriteSample(w, "evprop_flightrecorder_slow_threshold_seconds", nil, fs.SlowThresholdUsec/1e6)
	s.writeAuditMetrics(w)
	s.writeTraceMetrics(w)
	s.writeGaugeMetrics(w)
	s.writeModelMetrics(w)
}

// writeModelMetrics renders the per-model labeled series: lifecycle info,
// request counters by kind, propagations, cache counters and window QPS,
// one series per model.
func (s *server) writeModelMetrics(w http.ResponseWriter) {
	infos := s.reg.List()
	if len(infos) == 0 {
		return
	}
	versions := s.reg.CurrentVersions()
	label := func(name string) map[string]string { return map[string]string{"model": name} }
	obs.WriteHeader(w, "evprop_model_info", "Registered models: state and current version as labels, value 1.", "gauge")
	for _, info := range infos {
		obs.WriteSample(w, "evprop_model_info", map[string]string{
			"model": info.Name, "state": string(info.State), "version": fmt.Sprintf("%d", info.Version),
		}, 1)
	}
	obs.WriteHeader(w, "evprop_model_requests_total", "HTTP requests by model and kind.", "counter")
	for _, info := range infos {
		ms := s.modelStatsFor(info.Name)
		obs.WriteSample(w, "evprop_model_requests_total", map[string]string{"model": info.Name, "kind": "query"}, float64(ms.queries.Load()))
		obs.WriteSample(w, "evprop_model_requests_total", map[string]string{"model": info.Name, "kind": "batch"}, float64(ms.batches.Load()))
		obs.WriteSample(w, "evprop_model_requests_total", map[string]string{"model": info.Name, "kind": "mpe"}, float64(ms.mpes.Load()))
	}
	obs.WriteHeader(w, "evprop_model_errors_total", "HTTP error responses by model.", "counter")
	for _, info := range infos {
		obs.WriteSample(w, "evprop_model_errors_total", label(info.Name), float64(s.modelStatsFor(info.Name).errors.Load()))
	}
	obs.WriteHeader(w, "evprop_model_propagations_total", "Completed scheduler invocations by model (current version).", "counter")
	for _, info := range infos {
		if v, ok := versions[info.Name]; ok {
			obs.WriteSample(w, "evprop_model_propagations_total", label(info.Name), float64(v.Engine.Stats().Propagations))
		}
	}
	obs.WriteHeader(w, "evprop_model_cache_hits_total", "Result-cache hits by model (current version).", "counter")
	for _, info := range infos {
		if v, ok := versions[info.Name]; ok {
			obs.WriteSample(w, "evprop_model_cache_hits_total", label(info.Name), float64(v.Engine.CacheStats().Hits))
		}
	}
	obs.WriteHeader(w, "evprop_model_window_qps", "Mean requests/second over the last 60 seconds, by model.", "gauge")
	for _, info := range infos {
		obs.WriteSample(w, "evprop_model_window_qps", label(info.Name), s.modelStatsFor(info.Name).window.Snapshot().QPS)
	}
}

// flightRecorderResponse is the /v1/debug/flightrecorder payload: one
// model's recorder counters, its ring of recent queries, and its retained
// slow-query captures (full scheduler traces).
type flightRecorderResponse struct {
	Model    string                     `json:"model"`
	Recorder evprop.FlightRecorderStats `json:"recorder"`
	Records  []evprop.FlightRecord      `json:"records"`
	Slow     []evprop.SlowQueryCapture  `json:"slow"`
	// NextSince is the pagination cursor: pass it back as ?since= to
	// receive only records newer than this page. It repeats the request's
	// since value when no records matched.
	NextSince uint64 `json:"next_since"`
}

// handleFlightRecorder dumps a model's flight recorder (the recorder is
// scoped per model version — `?model=` selects one, default "default").
// `?id=q-…` filters both the ring and the slow captures to one query ID —
// the lookup used to correlate an X-Query-ID response header or
// access-log line with its scheduler run. `?since=<seq>` returns only
// records with a strictly greater sequence number and `&limit=N` caps the
// page (oldest first); together with the response's next_since cursor a
// poller tails the ring without re-reading records it has already seen.
// Slow captures are not paginated — the slow ring is small and keyed by
// its own capture order.
func (s *server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErrorCode(w, r, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	q := r.URL.Query()
	var since uint64
	haveSince := false
	if raw := q.Get("since"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeErrorCode(w, r, http.StatusBadRequest, "bad_request", "since must be a non-negative integer")
			return
		}
		since, haveSince = n, true
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			s.writeErrorCode(w, r, http.StatusBadRequest, "bad_request", "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	name := q.Get("model")
	if name == "" {
		name = defaultModel
	}
	v, err := s.reg.Current(name)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := flightRecorderResponse{
		Model:     name,
		Recorder:  v.Engine.FlightRecorderStats(),
		Records:   v.Engine.RecentQueries(),
		Slow:      v.Engine.SlowQueryCaptures(),
		NextSince: since,
	}
	if id := q.Get("id"); id != "" {
		var recs []evprop.FlightRecord
		for _, rec := range resp.Records {
			if rec.ID == id {
				recs = append(recs, rec)
			}
		}
		var slow []evprop.SlowQueryCapture
		for _, c := range resp.Slow {
			if c.Record.ID == id {
				slow = append(slow, c)
			}
		}
		resp.Records, resp.Slow = recs, slow
	}
	if haveSince {
		// Records arrive sorted by Seq; keep the strictly-newer suffix.
		cut := len(resp.Records)
		for i, rec := range resp.Records {
			if rec.Seq > since {
				cut = i
				break
			}
		}
		resp.Records = resp.Records[cut:]
	}
	if limit > 0 && len(resp.Records) > limit {
		resp.Records = resp.Records[:limit]
	}
	if n := len(resp.Records); n > 0 {
		resp.NextSince = resp.Records[n-1].Seq
	}
	s.writeJSON(w, resp)
}

// sortedModelNames returns the model names with live stats entries.
func (s *server) sortedModelNames() []string {
	var names []string
	s.perModel.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}
