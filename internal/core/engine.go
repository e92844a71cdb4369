// Package core ties the reproduction together: it is the evidence
// propagation engine that takes a junction tree, optionally reroots it with
// Algorithm 1 to minimize the critical path, builds the task dependency
// graph, absorbs evidence, runs one of the schedulers, and exposes
// posterior queries.
//
// An Engine is safe for fully concurrent use: any number of goroutines may
// call Propagate (and friends) on one compiled engine with no external
// locking. Everything structure-dependent — the junction tree, the task
// graph, the collect-only graphs, the worker pool — is built once and read
// concurrently; everything propagation-dependent lives in a per-run
// taskgraph.State, which is recycled through a sync.Pool so steady-state
// propagation does near-zero allocation.
package core

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"evprop/internal/baseline"
	"evprop/internal/cache"
	"evprop/internal/jtree"
	"evprop/internal/lazy"
	"evprop/internal/obs"
	otrace "evprop/internal/obs/trace"
	"evprop/internal/potential"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// Scheduler selects the execution strategy for one propagation.
type Scheduler int

const (
	// Collaborative is the paper's contribution (Section 6).
	Collaborative Scheduler = iota
	// Serial executes tasks on one goroutine in topological order.
	Serial
	// LevelSync is the task-level fork-join baseline.
	LevelSync
	// DataParallel parallelizes every primitive individually.
	DataParallel
	// Centralized uses a dedicated coordinator goroutine.
	Centralized
	// WorkStealing is the collaborative scheduler with tail-stealing from
	// the heaviest ready list (an extension; see sched.NewStealingPool).
	WorkStealing
)

var schedulerNames = map[Scheduler]string{
	Collaborative: "collaborative",
	Serial:        "serial",
	LevelSync:     "levelsync",
	DataParallel:  "dataparallel",
	Centralized:   "centralized",
	WorkStealing:  "stealing",
}

func (s Scheduler) String() string {
	if n, ok := schedulerNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheduler(%d)", int(s))
}

// ParseScheduler resolves a scheduler name used by the CLI tools.
func ParseScheduler(name string) (Scheduler, error) {
	for s, n := range schedulerNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheduler %q", name)
}

// Options configures an Engine.
type Options struct {
	// Workers is the number of worker goroutines P. 0 selects GOMAXPROCS.
	Workers int
	// Scheduler selects the execution strategy (default Collaborative).
	Scheduler Scheduler
	// Reroot applies Algorithm 1 before building the task graph,
	// minimizing the propagation critical path (default off; turn on for
	// parallel runs).
	Reroot bool
	// PartitionThreshold selects how the collaborative and work-stealing
	// schedulers' Partition module splits tasks. A positive δ applies the
	// paper's rule: every task over a table larger than δ entries is split
	// into pieces of δ snapped to its kernel grain. 0 (the default) builds
	// a per-task partition plan once per graph (taskgraph.Graph.PlanAuto):
	// a task is split only when every piece carries at least
	// taskgraph.MinPiece entries, and a Marginalize only when its private
	// separator buffers cost at most half the entries its pieces process.
	// Negative disables partitioning.
	PartitionThreshold int
	// CacheSize, when positive, enables the shared-evidence result cache:
	// an LRU of this many completed propagation results keyed by the
	// canonical evidence signature, fronted by a singleflight group that
	// collapses concurrent identical queries into one propagation. See
	// PropagateCachedContext.
	CacheSize int
	// Trace records a per-worker execution timeline in Result.Sched.Trace
	// (collaborative scheduler only).
	Trace bool
	// Recorder, when set, receives a summary of every propagation (the
	// flight recorder): runs are traced so slow ones retain their full
	// execution timeline, and each run's query ID, latency and Fig. 8
	// gauges land in the recorder's ring.
	Recorder *obs.FlightRecorder
	// PprofLabels tags scheduler workers with pprof goroutine labels
	// (query_id, task_kind) during each run. Off by default — the labels
	// are observable only through the pprof endpoints, and applying them
	// per item costs a few percent of propagation throughput, so callers
	// enable this only when those endpoints are exposed.
	PprofLabels bool
	// RecordEvidence retains each run's full evidence map in its flight
	// record, in addition to the always-present canonical signature, so
	// recorded queries are re-executable (audit replay). Off by default:
	// the evidence map is the one flight-record field whose size the
	// client controls.
	RecordEvidence bool
	// Lazy switches the engine to zero-aware lazy propagation (package
	// lazy): the tree is precalibrated once, each query runs a pruned
	// collect graph restricted to the cliques its evidence disturbs, and
	// the distribute pass is materialized on demand per posterior query.
	// Results are identical up to floating-point tolerance; flop, task and
	// message counters (Result.LazyStats) expose the pruning.
	Lazy bool
}

// ErrReleased is returned by Result methods after Release recycled the
// result's propagation state.
var ErrReleased = fmt.Errorf("core: result released")

// Engine owns a prepared junction tree and its task dependency graph, and
// runs any number of independent propagations over it, concurrently if the
// caller wishes.
type Engine struct {
	opts  Options
	tree  *jtree.Tree
	graph *taskgraph.Graph
	// RerootedFrom records the original root when Reroot moved it (-1
	// otherwise).
	RerootedFrom int
	// RerootTime is how long root selection and rerooting took, the
	// overhead the paper reports as negligible (24 µs for 512 cliques).
	RerootTime time.Duration

	// statePools recycles propagation states per semiring. States carry no
	// evidence residue: Reset re-copies the tree potentials on reuse.
	statePools [2]sync.Pool

	// lazyProp owns the precalibrated tables and pruned-plan cache when
	// Options.Lazy is set, nil otherwise.
	lazyProp *lazy.Prop

	// pool holds the persistent scheduler workers (in steal mode for the
	// WorkStealing scheduler), created lazily on first use so serial
	// engines never spawn goroutines.
	poolMu     sync.Mutex
	pool       *sched.Pool
	poolClosed bool

	// propagations counts scheduler invocations (full and collect-only),
	// the observable that lets tests prove a query cost exactly one
	// propagation.
	propagations atomic.Int64

	// obsAgg accumulates per-run observability reports (Fig. 8 metrics)
	// for the schedulers that produce sched.Metrics.
	obsAgg obs.Aggregate

	collectMu     sync.Mutex
	collectGraphs map[int]*collectEntry // per-target collect-only graphs

	// cache and flight are the shared-evidence result cache and its
	// request-collapsing singleflight group (nil when CacheSize is 0).
	// collapsed counts queries served by another caller's propagation.
	cache     *cache.LRU
	flight    *cache.Group
	collapsed atomic.Int64
}

// collectEntry caches the collect-only graph toward one target clique plus
// a pool of reusable states for it.
type collectEntry struct {
	g      *taskgraph.Graph
	states sync.Pool
}

// NewEngine validates and prepares the junction tree. The tree is cloned;
// the caller's copy is never mutated.
func NewEngine(t *jtree.Tree, opts Options) (*Engine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{opts: opts, RerootedFrom: -1}
	work := t.Clone()
	if opts.Reroot {
		start := time.Now()
		r := work.SelectRoot()
		if r != work.Root {
			nt, err := work.Reroot(r)
			if err != nil {
				return nil, err
			}
			e.RerootedFrom = work.Root
			work = nt
		}
		e.RerootTime = time.Since(start)
	}
	e.tree = work
	e.graph = taskgraph.Build(work)
	if err := e.graph.Validate(); err != nil {
		return nil, err
	}
	if opts.PartitionThreshold == 0 {
		e.graph.PlanAuto()
	}
	if opts.Lazy {
		lp, err := lazy.New(e.tree, e.graph)
		if err != nil {
			return nil, err
		}
		e.lazyProp = lp
	}
	if opts.CacheSize > 0 {
		e.cache = cache.NewLRU(opts.CacheSize)
		e.flight = &cache.Group{}
	}
	// Engines dropped without Close would otherwise leak their parked
	// worker goroutines; the finalizer is the safety net for short-lived
	// engines in tests and experiments.
	runtime.SetFinalizer(e, (*Engine).Close)
	return e, nil
}

// Close releases the engine's persistent worker pool. It is idempotent and
// optional — a finalizer closes abandoned engines — but long-running
// programs that create many engines should Close them deterministically.
// Propagations after Close fall back to transient per-call workers.
func (e *Engine) Close() {
	e.poolMu.Lock()
	p := e.pool
	e.pool = nil
	e.poolClosed = true
	e.poolMu.Unlock()
	if p != nil {
		p.Close()
	}
}

// workerPool returns the persistent pool, creating it on first use, or nil
// after Close.
func (e *Engine) workerPool() *sched.Pool {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.poolClosed {
		return nil
	}
	if e.pool == nil {
		newPool := sched.NewPool
		if e.opts.Scheduler == WorkStealing {
			newPool = sched.NewStealingPool
		}
		p, err := newPool(e.opts.Workers)
		if err != nil {
			return nil
		}
		e.pool = p
	}
	return e.pool
}

// Tree returns the engine's (possibly rerooted) junction tree.
func (e *Engine) Tree() *jtree.Tree { return e.tree }

// Graph returns the engine's task dependency graph.
func (e *Engine) Graph() *taskgraph.Graph { return e.graph }

// PartitionPlan returns the partition plan the engine's full propagation
// graph follows, nil when partitioning is disabled.
func (e *Engine) PartitionPlan() *taskgraph.Plan {
	return e.graph.PartitionPlan(e.opts.PartitionThreshold)
}

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// Propagations returns how many scheduler runs (full propagations and
// collect-only passes) the engine has executed.
func (e *Engine) Propagations() int64 { return e.propagations.Load() }

// ObsSnapshot returns the engine's aggregated observability counters: the
// lifetime busy/overhead/per-kind totals and the most recent run's Fig. 8
// load-balance and overhead-fraction gauges. Only schedulers that report
// sched.Metrics (collaborative, stealing) contribute.
func (e *Engine) ObsSnapshot() obs.AggregateSnapshot { return e.obsAgg.Snapshot() }

// Recorder returns the engine's flight recorder, nil when none is attached.
func (e *Engine) Recorder() *obs.FlightRecorder { return e.opts.Recorder }

// Gauges snapshots the live scheduler gauge surface: per-worker states,
// ready-list depths and weight counters, steal/partition counters and the
// global task-list depth. The read is wait-free for the workers. Engines on
// the serial or baseline schedulers report an empty snapshot.
func (e *Engine) Gauges() sched.GaugesSnapshot {
	switch e.opts.Scheduler {
	case Collaborative, WorkStealing:
		if p := e.workerPool(); p != nil {
			return p.Gauges().Snapshot()
		}
	}
	return sched.GaugesSnapshot{}
}

// getState returns a recycled state for the mode, or allocates one.
func (e *Engine) getState(mode taskgraph.Mode) (*taskgraph.State, error) {
	if v := e.statePools[mode].Get(); v != nil {
		st := v.(*taskgraph.State)
		st.Reset(mode)
		return st, nil
	}
	return e.graph.NewStateMode(mode)
}

// putState recycles a state whose run completed (or never started). States
// of failed or cancelled scheduler runs must NOT be recycled: pool workers
// may still be draining their queued items.
func (e *Engine) putState(st *taskgraph.State) {
	e.statePools[st.Mode()].Put(st)
}

// Result is one completed propagation.
type Result struct {
	eng   *Engine
	state propState
	pe    float64 // evidence mass, cached so it survives Release
	// Elapsed is the wall-clock propagation time (excluding evidence
	// absorption and state allocation).
	Elapsed time.Duration
	// Sched carries the collaborative scheduler's metrics when that
	// scheduler ran, nil otherwise.
	Sched *sched.Metrics

	// pinned marks a result held by the engine's shared-evidence cache:
	// Release is a no-op (the state must never recycle into the pool while
	// other readers share it) and single-variable marginals are memoized,
	// so repeated cache hits pay for each posterior once.
	pinned    bool
	marginals sync.Map // variable id -> *potential.Potential (pinned only)
}

// Pinned reports whether the result is owned by the engine's result cache
// and therefore shared: Release will not recycle it, and potentials it
// returns are shared and must not be mutated.
func (r *Result) Pinned() bool { return r.pinned }

// Propagate absorbs the evidence into a working state and runs the full
// two-pass evidence propagation with the configured scheduler. It is safe
// to call from any number of goroutines concurrently.
func (e *Engine) Propagate(ev potential.Evidence) (*Result, error) {
	return e.propagateFull(context.Background(), ev, nil, taskgraph.SumProduct)
}

// PropagateContext is Propagate with cancellation: a cancelled context
// stops the scheduler run at the next task boundary and returns ctx.Err().
func (e *Engine) PropagateContext(ctx context.Context, ev potential.Evidence) (*Result, error) {
	return e.propagateFull(ctx, ev, nil, taskgraph.SumProduct)
}

// PropagateSoft additionally absorbs soft (likelihood) evidence before
// propagating: each weight vector scales the corresponding variable's
// states instead of fixing one.
func (e *Engine) PropagateSoft(ev potential.Evidence, like potential.Likelihood) (*Result, error) {
	return e.propagateFull(context.Background(), ev, like, taskgraph.SumProduct)
}

// PropagateSoftContext is PropagateSoft with cancellation.
func (e *Engine) PropagateSoftContext(ctx context.Context, ev potential.Evidence, like potential.Likelihood) (*Result, error) {
	return e.propagateFull(ctx, ev, like, taskgraph.SumProduct)
}

// PropagateMax runs max-product propagation: afterwards every clique holds
// max-marginals and Result.MostProbableExplanation extracts the MPE.
func (e *Engine) PropagateMax(ev potential.Evidence) (*Result, error) {
	return e.propagateFull(context.Background(), ev, nil, taskgraph.MaxProduct)
}

// PropagateMaxContext is PropagateMax with cancellation.
func (e *Engine) PropagateMaxContext(ctx context.Context, ev potential.Evidence) (*Result, error) {
	return e.propagateFull(ctx, ev, nil, taskgraph.MaxProduct)
}

func (e *Engine) propagateFull(ctx context.Context, ev potential.Evidence, like potential.Likelihood, mode taskgraph.Mode) (*Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var sp *otrace.Span
	if ctx != nil {
		sp = otrace.FromContext(ctx)
	}
	var st propState
	var exec taskgraph.Executor
	asp := sp.StartChild("absorb", otrace.Int("evidence.vars", int64(len(ev))))
	if e.lazyProp != nil {
		lst, err := e.lazyProp.NewState(mode, ev, like)
		if err != nil {
			asp.Fail(err.Error())
			asp.End()
			return nil, err
		}
		if lst.PlanHit() {
			asp.SetAttr(otrace.String("plan", "hit"))
		} else {
			asp.SetAttr(otrace.String("plan", "build"))
		}
		st, exec = lst, lst
	} else {
		est, err := e.getState(mode)
		if err != nil {
			asp.Fail(err.Error())
			asp.End()
			return nil, err
		}
		if err := est.AbsorbEvidence(ev); err != nil {
			e.putState(est) // never ran; Reset restores the partial reduction
			asp.Fail(err.Error())
			asp.End()
			return nil, err
		}
		if err := est.AbsorbLikelihood(like); err != nil {
			e.putState(est)
			asp.Fail(err.Error())
			asp.End()
			return nil, err
		}
		st, exec = est, est
	}
	asp.End()
	res := &Result{eng: e, state: st}
	id := e.queryID(ctx)
	psp := sp.StartChild("propagate",
		otrace.String("scheduler", e.opts.Scheduler.String()),
		otrace.Int("workers", int64(e.opts.Workers)))
	start := time.Now()
	m, err := e.runScheduler(ctx, id, exec)
	elapsed := time.Since(start)
	e.finishRunSpan(psp, start, m, st, err)
	e.recordRun(id, mode.String(), byte(mode), ev, like, elapsed, m, st, err)
	if err != nil {
		// The state may still be referenced by pool workers draining the
		// failed run's queue — drop it to the GC instead of recycling.
		return nil, err
	}
	res.Sched = m
	res.Elapsed = elapsed
	res.pe = st.EvidenceMass()
	return res, nil
}

// finishRunSpan closes a propagation's run span: scheduler metrics become
// attributes plus coarse per-task-kind child spans folded from the
// already-collected sched.Metrics (no extra hot-path clocking — the
// children are synthesized after the run from per-kind busy totals), and
// lazy pruning counters land as attributes when the lazy engine ran.
func (e *Engine) finishRunSpan(psp *otrace.Span, start time.Time, m *sched.Metrics, st propState, runErr error) {
	if psp == nil {
		return
	}
	if runErr != nil {
		psp.Fail(runErr.Error())
	}
	if m != nil {
		psp.SetAttr(otrace.Int("tasks", int64(m.Tasks)))
		var kinds [taskgraph.NumKinds]time.Duration
		for _, wm := range m.Workers {
			for k, d := range wm.KindBusy {
				kinds[k] += d
			}
		}
		for k, d := range kinds {
			if d > 0 {
				psp.ChildInterval("kind."+taskgraph.Kind(k).String(), start, d)
			}
		}
	}
	if lst, ok := st.(*lazy.State); ok && runErr == nil {
		s := lst.Stats()
		psp.SetAttr(
			otrace.Int("lazy.msg_sent", s.MessagesSent),
			otrace.Int("lazy.msg_blocked", s.MessagesBlocked),
			otrace.Int("lazy.msg_skipped", s.MessagesSkipped),
			otrace.Int("lazy.flops", s.Flops),
			otrace.Int("lazy.flops_full", s.FlopsFull),
		)
	}
	psp.End()
}

// queryID resolves the run's query ID before the scheduler starts, so the
// same ID reaches both the workers' pprof labels and the flight recorder. A
// fresh ID is minted only when a recorder will log it; otherwise an absent
// ID stays absent and label setup is skipped entirely.
func (e *Engine) queryID(ctx context.Context) string {
	id := obs.QueryIDFrom(ctx)
	if id == "" && e.opts.Recorder != nil {
		id = obs.NewQueryID()
	}
	return id
}

// recordRun folds one scheduler run into the flight recorder (when one is
// attached) under the run's resolved query ID. Traces armed by the recorder
// (rather than requested via Options.Trace) are stripped from the metrics
// afterwards: slow runs' traces now belong to the recorder, fast runs'
// traces are dead weight.
func (e *Engine) recordRun(id, mode string, sigMode byte, ev potential.Evidence, like potential.Likelihood, elapsed time.Duration, m *sched.Metrics, st propState, runErr error) {
	rec := e.opts.Recorder
	if rec == nil {
		return
	}
	if runErr != nil {
		// Mirror the state-drop policy for failed and cancelled runs: pool
		// workers may still be executing already-fetched items, mutating the
		// per-worker metrics and trace buffers (sched detached the latter
		// from the returned Trace). Record only the scalar fields and leave
		// the rest to the GC with the run.
		m = nil
	}
	info := obs.RunInfo{
		ID:           id,
		Mode:         mode,
		EvidenceVars: len(ev),
		Elapsed:      elapsed,
		Err:          runErr,
		EvidenceSig:  cache.Signature(sigMode, ev, like),
	}
	if e.opts.RecordEvidence {
		info.Evidence = maps.Clone(ev)
	}
	// Lazy pruning counters make slow lazy queries explainable from the
	// recorder alone: the record shows what the pruning did (or failed to
	// prune) without needing a retained trace.
	if lst, ok := st.(*lazy.State); ok && runErr == nil {
		s := lst.Stats()
		info.Lazy = true
		info.LazyMsgSent = s.MessagesSent
		info.LazyMsgBlocked = s.MessagesBlocked
		info.LazyMsgSkipped = s.MessagesSkipped
		info.LazyFlops = s.Flops
		info.LazyFlopsFull = s.FlopsFull
		info.LazyMaterialized = s.MaterializedEntries
	}
	rec.RecordRun(info, m)
	if m != nil && !e.opts.Trace {
		// The trace existed only for the recorder. If the run was slow the
		// recorder finalized and kept it; otherwise Release recycles its
		// buffers. Either way it leaves the caller-visible metrics.
		m.Trace.Release()
		m.Trace = nil
	}
}

// runScheduler executes the state's graph with the configured strategy,
// returning collaborative-scheduler metrics when applicable. queryID, when
// non-empty and Options.PprofLabels is on, tags the workers with pprof
// labels for the duration of the run (the recorder uses the ID either way).
func (e *Engine) runScheduler(ctx context.Context, queryID string, st taskgraph.Executor) (*sched.Metrics, error) {
	e.propagations.Add(1)
	if !e.opts.PprofLabels {
		queryID = "" // sched uses the ID only for labels; drop it at zero cost
	}
	// A flight recorder arms tracing on every run so a run that turns out
	// slow still has its full timeline to retain — slowness is only known
	// after the fact. Recorder-armed traces (not requested by the user)
	// defer their merge: recordRun keeps them only for slow runs, so fast
	// runs just recycle their event buffers.
	trace := e.opts.Trace || e.opts.Recorder != nil
	lazy := trace && !e.opts.Trace
	switch e.opts.Scheduler {
	case Collaborative, WorkStealing:
		opts := sched.Options{
			Workers:   e.opts.Workers,
			Threshold: e.opts.PartitionThreshold,
			Trace:     trace,
			LazyTrace: lazy,
			Ctx:       ctx,
			QueryID:   queryID,
		}
		var m *sched.Metrics
		var err error
		if p := e.workerPool(); p != nil {
			m, err = p.Run(st, opts)
		} else if e.opts.Scheduler == WorkStealing {
			m, err = sched.RunStealing(st, opts)
		} else {
			m, err = sched.Run(st, opts)
		}
		return e.observeRun(m, err)
	case Serial:
		_, err := baseline.Serial(st)
		return nil, err
	case LevelSync:
		_, err := baseline.LevelSync(st, e.opts.Workers)
		return nil, err
	case DataParallel:
		_, err := baseline.DataParallel(st, e.opts.Workers)
		return nil, err
	case Centralized:
		p := e.opts.Workers
		if p < 2 {
			p = 2
		}
		_, err := baseline.Centralized(st, p)
		return nil, err
	default:
		return nil, fmt.Errorf("core: unknown scheduler %v", e.opts.Scheduler)
	}
}

// observeRun folds a successful run's metrics into the engine's
// observability aggregate before handing them to the caller.
func (e *Engine) observeRun(m *sched.Metrics, err error) (*sched.Metrics, error) {
	if err == nil && m != nil {
		e.obsAgg.Observe(obs.FromSched(m))
	}
	return m, err
}

// CollectMarginal answers a single-variable query with a collection-only
// propagation: the tree is rerooted at a clique containing v, the
// leaves-to-root half of the task graph runs, and the posterior is read
// from the root — roughly half the work of Propagate. The collect-only
// graph is built per target clique and cached; its states are pooled like
// the full-propagation states.
func (e *Engine) CollectMarginal(ev potential.Evidence, v int) (*potential.Potential, error) {
	return e.CollectMarginalContext(context.Background(), ev, v)
}

// CollectMarginalContext is CollectMarginal with cancellation.
func (e *Engine) CollectMarginalContext(ctx context.Context, ev potential.Evidence, v int) (*potential.Potential, error) {
	ci := e.tree.CliqueOf(v)
	if ci < 0 {
		return nil, fmt.Errorf("core: no clique contains variable %d", v)
	}
	entry, err := e.collectEntryFor(ci)
	if err != nil {
		return nil, err
	}
	var st *taskgraph.State
	if v := entry.states.Get(); v != nil {
		st = v.(*taskgraph.State)
		st.Reset(taskgraph.SumProduct)
	} else {
		st, err = entry.g.NewState()
		if err != nil {
			return nil, err
		}
	}
	if err := st.AbsorbEvidence(ev); err != nil {
		entry.states.Put(st)
		return nil, err
	}
	id := e.queryID(ctx)
	var csp *otrace.Span
	if ctx != nil {
		csp = otrace.FromContext(ctx).StartChild("collect",
			otrace.Int("target.var", int64(v)),
			otrace.String("scheduler", e.opts.Scheduler.String()))
	}
	start := time.Now()
	sm, err := e.runScheduler(ctx, id, st)
	e.finishRunSpan(csp, start, sm, st, err)
	e.recordRun(id, "collect", byte(taskgraph.SumProduct), ev, nil, time.Since(start), sm, st, err)
	if err != nil {
		return nil, err // state possibly still referenced; drop it
	}
	m, err := st.Clique[entry.g.Tree.Root].Marginal([]int{v})
	entry.states.Put(st)
	if err != nil {
		return nil, err
	}
	if err := m.Normalize(); err != nil {
		return nil, fmt.Errorf("core: variable %d has zero posterior mass (impossible evidence?): %w", v, err)
	}
	return m, nil
}

// collectEntryFor builds (once) and returns the collect-only cache entry
// for the target clique.
func (e *Engine) collectEntryFor(ci int) (*collectEntry, error) {
	e.collectMu.Lock()
	defer e.collectMu.Unlock()
	if entry, ok := e.collectGraphs[ci]; ok {
		return entry, nil
	}
	rt, err := e.tree.Reroot(ci)
	if err != nil {
		return nil, err
	}
	entry := &collectEntry{g: taskgraph.BuildCollectOnly(rt)}
	if e.opts.PartitionThreshold == 0 {
		entry.g.PlanAuto()
	}
	if e.collectGraphs == nil {
		e.collectGraphs = map[int]*collectEntry{}
	}
	e.collectGraphs[ci] = entry
	return entry, nil
}

// Release recycles the result's propagation state into the engine's pool.
// After Release, only ProbabilityOfEvidence (cached) remains usable; the
// other accessors return ErrReleased. Posterior slices previously returned
// are copies and stay valid. Release is optional — unreleased states are
// garbage collected — and must not race with the result's other methods.
func (r *Result) Release() {
	if r == nil || r.state == nil || r.pinned {
		// Pinned results are shared through the cache: recycling their
		// state while other readers derive posteriors from it would
		// corrupt those reads, so Release leaves them to the GC.
		return
	}
	st := r.state
	r.state = nil
	// Only eager states recycle through the pool; lazy states own
	// query-specific overlay tables and go to the GC.
	if est, ok := st.(*taskgraph.State); ok && r.eng != nil {
		r.eng.putState(est)
	}
}

// Marginal returns the normalized posterior P(v | evidence) from the
// propagation result. On pinned (cache-shared) results the potential is
// memoized and shared between callers, so it must not be mutated.
func (r *Result) Marginal(v int) (*potential.Potential, error) {
	if r.state == nil {
		return nil, ErrReleased
	}
	if r.pinned {
		if m, ok := r.marginals.Load(v); ok {
			return m.(*potential.Potential), nil
		}
	}
	m, err := r.state.Marginal(v)
	if err != nil {
		return nil, err
	}
	if r.pinned {
		r.marginals.Store(v, m)
	}
	return m, nil
}

// JointMarginal returns the normalized posterior over a set of variables,
// which must all be contained in one clique.
func (r *Result) JointMarginal(vars []int) (*potential.Potential, error) {
	if r.state == nil {
		return nil, ErrReleased
	}
	tree := r.state.Graph().Tree
	for i := range tree.Cliques {
		all := true
		for _, v := range vars {
			if !tree.Cliques[i].Pot.HasVar(v) {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		cp, err := r.state.CliquePot(i)
		if err != nil {
			return nil, err
		}
		m, err := cp.Marginal(vars)
		if err != nil {
			return nil, err
		}
		if err := m.Normalize(); err != nil {
			return nil, fmt.Errorf("core: zero posterior mass: %w", err)
		}
		return m, nil
	}
	return nil, fmt.Errorf("core: no clique contains all of %v", vars)
}

// ProbabilityOfEvidence returns P(e): after absorption and propagation the
// total mass of any clique equals the (unnormalized) evidence likelihood.
// The value is cached at propagation time, so it remains available after
// Release.
func (r *Result) ProbabilityOfEvidence() float64 { return r.pe }

// State exposes the underlying eager propagation state for
// instrumentation. It is nil after Release and nil for lazy results, whose
// pruning counters are exposed through LazyStats instead.
func (r *Result) State() *taskgraph.State {
	st, _ := r.state.(*taskgraph.State)
	return st
}

// LazyStats returns the pruning counters of a lazy propagation (messages
// and tasks sent/blocked/skipped, flops vs the eager engine, materialized
// table entries). ok is false for eager results and after Release. The
// counters are live: posterior queries materialize distribute messages on
// demand and advance them.
func (r *Result) LazyStats() (lazy.Stats, bool) {
	if st, ok := r.state.(*lazy.State); ok {
		return st.Stats(), true
	}
	return lazy.Stats{}, false
}

// CheckCalibration verifies the Hugin invariant on the propagation result:
// every pair of adjacent cliques must agree (within tol, after
// normalization) on their separator marginal. It returns nil when the tree
// is calibrated — the structural proof that propagation completed
// correctly, independent of any query.
func (r *Result) CheckCalibration(tol float64) error {
	if r.state == nil {
		return ErrReleased
	}
	// Lazy results defer distribute work; a whole-tree check needs all of
	// it materialized. Normalization below cancels the per-table scalars
	// of any blocked (elided) messages.
	if err := r.state.Calibrate(); err != nil {
		return err
	}
	tree := r.state.Graph().Tree
	for c := range tree.Cliques {
		p := tree.Cliques[c].Parent
		if p < 0 {
			continue
		}
		cc, err := r.state.CliquePot(c)
		if err != nil {
			return err
		}
		cp, err := r.state.CliquePot(p)
		if err != nil {
			return err
		}
		mc, err := cc.Marginal(tree.Cliques[c].SepVars)
		if err != nil {
			return err
		}
		mp, err := cp.Marginal(tree.Cliques[c].SepVars)
		if err != nil {
			return err
		}
		if err := mc.Normalize(); err != nil {
			return fmt.Errorf("core: clique %d has zero mass: %w", c, err)
		}
		if err := mp.Normalize(); err != nil {
			return fmt.Errorf("core: clique %d has zero mass: %w", p, err)
		}
		if d, _ := mc.MaxDiff(mp); d > tol {
			return fmt.Errorf("core: edge (%d,%d) not calibrated: separator marginals differ by %g", c, p, d)
		}
	}
	return nil
}

// MostProbableExplanation extracts the jointly most probable assignment of
// every variable from a max-product propagation result, together with its
// unnormalized probability P(x*, e). Divide by ProbabilityOfEvidence of a
// sum-product run over the same evidence to obtain P(x* | e).
//
// Extraction walks the calibrated tree top-down: the root clique's argmax
// fixes its variables; every other clique maximizes subject to the states
// already fixed by its ancestors, which max-calibration guarantees is
// globally consistent.
func (r *Result) MostProbableExplanation() (map[int]int, float64, error) {
	if r.state == nil {
		return nil, 0, ErrReleased
	}
	if r.state.Mode() != taskgraph.MaxProduct {
		return nil, 0, fmt.Errorf("core: MostProbableExplanation requires a PropagateMax result (state is %v)", r.state.Mode())
	}
	// The top-down walk reads every clique; materialize deferred
	// distribute messages first. Argmax extraction is invariant to the
	// positive per-table scalars of elided blocked messages; the absolute
	// probability is repaired by MassScale (1 for eager states).
	if err := r.state.Calibrate(); err != nil {
		return nil, 0, err
	}
	tree := r.state.Graph().Tree
	order, err := tree.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	assignment := map[int]int{}
	prob := 0.0
	for k, ci := range order {
		pot, err := r.state.CliquePot(ci)
		if err != nil {
			return nil, 0, err
		}
		idx, v, err := pot.ArgMaxConsistent(assignment)
		if err != nil {
			return nil, 0, err
		}
		if k == 0 {
			prob = v * r.state.MassScale()
			if prob == 0 {
				return nil, 0, fmt.Errorf("core: evidence has zero probability; no explanation exists")
			}
		}
		states := pot.AssignmentOf(idx)
		for pos, variable := range pot.Vars {
			assignment[variable] = states[pos]
		}
	}
	return assignment, prob, nil
}
