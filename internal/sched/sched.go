// Package sched implements the paper's collaborative scheduler (Section 6,
// Algorithm 2): P worker goroutines cooperatively execute a task dependency
// graph. Every worker owns the four modules of Figure 3:
//
//   - Allocate: after finishing a task, the worker decrements the dependency
//     degree of its successors in the shared global task list, and pushes
//     each task that reaches degree zero onto the local ready list with the
//     smallest weight counter (load balancing);
//   - Fetch: the worker pops the head of its own local ready list;
//   - Partition: a fetched task the graph's partition plan splits (the
//     paper's rule: its potential table exceeds the threshold δ) becomes
//     subtasks T̂1…T̂n over disjoint index ranges — T̂1 runs inline,
//     T̂2…T̂n−1 are spread evenly across the local lists, and the combining
//     subtask T̂n (which inherits T's successors) fires once all pieces
//     complete;
//   - Execute: the node-level primitive (or piece of one) runs.
//
// There is no dedicated scheduler thread — scheduling work is performed
// collaboratively by whichever worker completes a task, which is the
// paper's key difference from the centralized (Cell BE) design.
//
// Workers live in a Pool and park between propagations rather than being
// respawned per run. A Pool multiplexes any number of concurrent runs over
// the same P workers: every queued item carries a pointer to its run, so
// independent propagations interleave on the ready lists and keep all cores
// busy under concurrent serving load (the throughput regime of Zheng &
// Mengshoel's belief-update workloads). The one-shot Run helper preserves
// the original spawn-per-call behavior for benchmarks that want it.
package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// Options configures a collaborative-scheduler run.
type Options struct {
	// Workers is the number of worker goroutines P (≥1). Pool.Run ignores
	// it in favor of the pool's own size.
	Workers int
	// Threshold is δ. A positive δ applies the paper's rule: a task whose
	// partitionable table has more entries than δ is split into pieces of
	// δ snapped to its kernel grain. 0 follows the automatic plan the
	// graph's builder attached (taskgraph.Graph.PlanAuto), which splits
	// only where pieces are large enough to pay for their dispatch; a
	// graph without one is never partitioned (as in the paper's Fig. 5
	// experiments). Negative disables partitioning.
	Threshold int
	// Trace records a per-worker execution timeline in Metrics.Trace
	// (small constant overhead per executed item).
	Trace bool
	// LazyTrace defers the trace's merge and sort: Metrics.Trace comes
	// back holding raw per-worker buffers, and the caller must call
	// exactly one of Trace.Finalize (keep it) or Trace.Release (drop it).
	// Set by callers that usually discard the trace — the flight
	// recorder's always-armed tracing keeps only slow runs, so the merge
	// cost is paid only when a capture actually happens.
	LazyTrace bool
	// Ctx optionally cancels the run: it is polled between items, so a
	// cancelled run stops at the next task boundary instead of running to
	// completion. nil means never cancelled.
	Ctx context.Context
	// QueryID, when non-empty, tags the worker goroutines with pprof labels
	// (query_id, task_kind) while they execute this run's items, so CPU
	// profiles segment by query and by primitive. Empty disables labelling
	// at zero hot-path cost.
	QueryID string
	// Gauges optionally accumulates live gauge updates for schedulers that
	// do not own a persistent pool (RunStealing); pass the same surface on
	// every run so counters accumulate across propagations. Pool.Run
	// ignores it in favor of the pool's own gauge surface.
	Gauges *Gauges
}

// WorkerMetrics records per-worker accounting for the paper's Fig. 8.
type WorkerMetrics struct {
	// Busy is the time spent inside node-level primitives ("computation
	// time" in the paper).
	Busy time.Duration
	// Overhead is the time spent in the Allocate and Partition modules
	// (lock waits included). Fetch waits are not attributed: pooled
	// workers park across unrelated runs while idle.
	Overhead time.Duration
	// Tasks counts executed items (tasks, pieces and combiners).
	Tasks int
	// KindBusy splits Busy by primitive kind, indexed by taskgraph.Kind.
	KindBusy [taskgraph.NumKinds]time.Duration
}

// Metrics aggregates a run.
type Metrics struct {
	Workers   []WorkerMetrics
	Elapsed   time.Duration
	Tasks     int // original graph tasks completed
	Pieces    int // partitioned pieces executed
	Partition int // tasks that were partitioned
	Steals    int // items taken from another worker's list (stealing only)
	// Trace is the execution timeline (nil unless Options.Trace).
	Trace *Trace
}

// item is one unit of work on a local ready list. The run pointer lets a
// pool worker process items from interleaved concurrent runs.
type item struct {
	r      *run
	task   int
	lo, hi int
	buf    *potential.Potential // private buffer for marginalize pieces
	comb   *combiner            // set on pieces of a partitioned task
	isComb bool                 // set on the combining subtask T̂n
	weight int64
}

// combiner tracks the outstanding pieces of one partitioned task.
type combiner struct {
	task    int
	pending int32
	mu      sync.Mutex
	bufs    []*potential.Potential
}

// localList is a worker's local ready list (LL). Any worker may push (the
// Allocate module), so it is lock-protected. The paper's W_i weight counter
// lives in the gauge slot's packed LL word, where it doubles as the live
// queue-weight gauge — one atomic add maintains both.
type localList struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   ring
	stopped bool
	g       *workerGauges // owning worker's gauge slot (never nil)
}

func newLocalList(g *workerGauges) *localList {
	l := &localList{g: g}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *localList) push(it item) {
	l.mu.Lock()
	l.items.pushBack(it)
	l.g.llAdd(1, it.weight)
	l.mu.Unlock()
	l.cond.Signal()
}

// fetch blocks until an item is available or the list is stopped. Queued
// items are always drained before a stop takes effect. g is the calling
// worker's gauge slot: fetch keeps the list's depth/weight gauges in step
// and publishes the parked transition, but only on the slow path — the
// returned waited flag tells the caller to republish its executing state.
// A worker draining a hot list therefore performs no state stores at all.
func (l *localList) fetch(g *workerGauges) (item, bool, bool) {
	waited := false
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.items.len() > 0 {
			it := l.items.popFront()
			l.g.llAdd(-1, -it.weight)
			return it, true, waited
		}
		if l.stopped {
			return item{}, false, waited
		}
		waited = true
		g.state.Store(int32(WorkerParked))
		clearLabels(g)
		l.cond.Wait()
	}
}

func (l *localList) stop() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Pool is a set of persistent collaborative-scheduler workers. Workers park
// on their local ready lists between propagations, so the per-propagation
// cost of a Run is pushing the source tasks — no goroutine spawn, no stack
// growth, no scheduler warm-up. A Pool may execute any number of concurrent
// runs; their items interleave on the shared ready lists.
type Pool struct {
	lists  []*localList
	gauges *Gauges
	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewPool starts workers parked goroutines and returns the pool. Close
// releases them.
func NewPool(workers int) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sched: need at least 1 worker, got %d", workers)
	}
	p := &Pool{lists: make([]*localList, workers), gauges: NewGauges(workers)}
	for i := range p.lists {
		p.lists[i] = newLocalList(p.gauges.worker(i))
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			l := p.lists[w]
			wg := p.gauges.worker(w)
			executing := false
			for {
				it, ok, waited := l.fetch(wg)
				if !ok {
					wg.state.Store(int32(WorkerParked))
					return
				}
				// Publish the executing state only when it could have
				// changed (first item, or after a park) — the fast path
				// stays free of state stores.
				if !executing || waited {
					wg.state.Store(int32(WorkerExecuting))
					executing = true
				}
				it.r.process(w, it)
			}
		}(w)
	}
	return p, nil
}

// Workers returns the pool size P.
func (p *Pool) Workers() int { return len(p.lists) }

// Gauges exposes the pool's live gauge surface for samplers.
func (p *Pool) Gauges() *Gauges { return p.gauges }

// Close stops the workers after the queued items drain and waits for them
// to exit. Close is idempotent; Run after Close returns an error.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for _, l := range p.lists {
		l.stop()
	}
	p.wg.Wait()
}

// run is the per-propagation bookkeeping shared by the pool workers.
type run struct {
	st        taskgraph.Executor
	g         *taskgraph.Graph
	opts      Options
	ctx       context.Context
	deps      []int32
	lists     []*localList
	remaining int64 // original tasks not yet complete
	failed    int32
	// rr is the round-robin cursor for spreading pieces. It is unsigned so
	// the slot index stays valid across wraparound: the modulo is taken on
	// the uint64 before converting, whereas int(signed)%n goes negative
	// once the cursor wraps past MaxInt64 and would index out of range.
	rr       uint64
	errOnce  sync.Once
	err      error
	doneOnce sync.Once
	done     chan struct{}
	metrics  []WorkerMetrics
	pieces   int64
	parted   int64
	start    time.Time
	tbufs    *traceBufs // per-worker event buffers, merged lazily when tracing
	gauges   *Gauges    // live gauge surface (never nil in pool runs)
	labels   *labelSet  // pprof query/kind labels (nil when Options.QueryID == "")
}

// Run executes the state's task graph on the pool's workers and returns
// per-worker metrics. The state's potentials hold the propagation result
// afterwards. Run blocks until the propagation completes, fails, or its
// context is cancelled; any number of Runs may be in flight concurrently.
//
// A failed or cancelled Run returns without waiting for workers that are
// mid-item: such stragglers keep mutating the run's State, Workers metrics
// and trace until they hit the failed-run check, so on error the caller
// must not read Metrics.Workers, and the returned Trace carries no events
// (its buffers are abandoned to the GC rather than recycled).
func (p *Pool) Run(st taskgraph.Executor, opts Options) (*Metrics, error) {
	if p.closed.Load() {
		return nil, fmt.Errorf("sched: pool is closed")
	}
	g := st.Graph()
	r := &run{
		st:        st,
		g:         g,
		opts:      opts,
		ctx:       opts.Ctx,
		deps:      g.DepCounts(),
		lists:     p.lists,
		remaining: int64(g.N()),
		metrics:   make([]WorkerMetrics, len(p.lists)),
		done:      make(chan struct{}),
		gauges:    p.gauges,
		labels:    newLabelSet(opts.Ctx, opts.QueryID),
	}
	start := time.Now()
	r.start = start
	if g.N() == 0 {
		m := &Metrics{Workers: r.metrics, Elapsed: time.Since(start)}
		if opts.Trace {
			m.Trace = &Trace{Workers: len(p.lists)}
		}
		return m, nil
	}
	if opts.Trace {
		r.tbufs = getTraceBufs(len(p.lists))
	}
	p.gauges.runStarted(g.N())
	// Line 1 of Algorithm 2: distribute the initially ready tasks evenly.
	for i, id := range g.Sources() {
		r.lists[i%len(r.lists)].push(r.wholeItem(id))
	}
	<-r.done
	// A successful run has remaining == 0; a failed one writes off its
	// unfinished tasks so the GL-depth gauge doesn't leak (stragglers that
	// still retire tasks are why Snapshot clamps at zero).
	p.gauges.runFinished(atomic.LoadInt64(&r.remaining))
	if r.err == nil {
		// Fold the run's busy/item totals into the cumulative gauges. A
		// failed run is skipped: its stragglers still write r.metrics (see
		// the Run doc), so reading it here would race — that run's busy
		// time is simply not attributed.
		p.gauges.flushRun(r.metrics)
	}
	m := &Metrics{
		Workers:   r.metrics,
		Elapsed:   time.Since(start),
		Tasks:     g.N() - int(atomic.LoadInt64(&r.remaining)),
		Pieces:    int(atomic.LoadInt64(&r.pieces)),
		Partition: int(atomic.LoadInt64(&r.parted)),
	}
	if opts.Trace {
		tr := &Trace{Workers: len(p.lists), Total: m.Elapsed, bufs: r.tbufs}
		if r.err != nil {
			// A failed or cancelled run returns while workers may still be
			// executing already-fetched items of it, appending to the trace
			// buffers (and mutating Workers — see the Run doc). Detach the
			// buffers so Finalize and Release become no-ops: they must go to
			// the GC with the run, not back into the pool where a straggler's
			// append would corrupt the next run's trace.
			tr.bufs = nil
		} else if !opts.LazyTrace {
			tr.Finalize()
		}
		m.Trace = tr
	}
	return m, r.err
}

// Run executes the state's task graph with the collaborative scheduler on a
// transient pool of opts.Workers goroutines, preserving the original
// spawn-per-call behavior. Long-lived engines should hold a Pool instead.
func Run(st taskgraph.Executor, opts Options) (*Metrics, error) {
	p, err := NewPool(opts.Workers)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Run(st, opts)
}

func (r *run) wholeItem(id int) item {
	return item{r: r, task: id, lo: 0, hi: -1, weight: int64(r.g.Tasks[id].Weight)}
}

func (r *run) fail(err error) {
	r.errOnce.Do(func() { r.err = err })
	atomic.StoreInt32(&r.failed, 1)
	r.finish()
}

// finish releases the Run call. Pool workers are untouched: leftover items
// of a failed run are drained as no-ops by the failed-flag check.
func (r *run) finish() {
	r.doneOnce.Do(func() { close(r.done) })
}

// process runs one fetched item through Partition and Execute, then
// performs the Allocate step for anything it completed.
func (r *run) process(w int, it item) {
	if atomic.LoadInt32(&r.failed) == 1 {
		return
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
			return
		}
	}
	switch {
	case it.isComb:
		r.runCombiner(w, it)
	case it.comb != nil:
		r.runPiece(w, it)
	default:
		// Lines 12–18: partition large tasks, execute small ones whole.
		if r.partition(w, it.task, r.st.PartitionSize(it.task)) {
			return
		}
		kind := r.g.Tasks[it.task].Kind
		wg := r.gauges.worker(w)
		r.labels.apply(kind, wg)
		t0 := time.Now()
		err := r.st.Execute(it.task)
		d := time.Since(t0)
		r.metrics[w].Busy += d
		r.metrics[w].KindBusy[kind] += d
		r.metrics[w].Tasks++
		r.record(w, it.task, kind, 0, -1, false, t0.Sub(r.start), d)
		if err != nil {
			r.fail(fmt.Errorf("sched: task %s: %w", r.g.Tasks[it.task].String(), err))
			return
		}
		r.completeTask(w, it.task)
	}
}

// partition splits task id, whose range spans size entries, into the
// pieces its partition plan sets (line 13) and reports whether it did: the
// first piece runs inline, the rest are spread evenly over the local lists,
// and a combiner item fires when the last piece finishes.
func (r *run) partition(w int, id, size int) bool {
	n, step := r.g.PartitionPlan(r.opts.Threshold).Split(id, size)
	if n == 0 {
		return false
	}
	tPart := time.Now()
	comb := &combiner{task: id, pending: int32(n)}
	atomic.AddInt64(&r.parted, 1)
	r.gauges.worker(w).partitions.Add(1)
	var first item
	for k := 0; k < n; k++ {
		lo := k * step
		hi := lo + step
		if hi > size {
			hi = size
		}
		it := item{r: r, task: id, lo: lo, hi: hi, comb: comb,
			weight: pieceWeight(r.g.Tasks[id].Weight, hi-lo, size),
			buf:    r.st.NewPartialBuffer(id)}
		if k == 0 {
			first = it
			continue
		}
		slot := int(atomic.AddUint64(&r.rr, 1) % uint64(len(r.lists)))
		r.lists[slot].push(it)
	}
	r.metrics[w].Overhead += time.Since(tPart)
	r.runPiece(w, first)
	return true
}

// pieceWeight prorates a task's weight over a piece's span, so the snapped
// (and possibly short final) pieces load the W_i counters in proportion to
// the work they actually carry.
func pieceWeight(taskW float64, span, size int) int64 {
	return int64(taskW*float64(span)/float64(size)) + 1
}

func (r *run) runPiece(w int, it item) {
	kind := r.g.Tasks[it.task].Kind
	wg := r.gauges.worker(w)
	r.labels.apply(kind, wg)
	t0 := time.Now()
	err := r.st.ExecutePiece(it.task, it.lo, it.hi, it.buf)
	d := time.Since(t0)
	r.metrics[w].Busy += d
	r.metrics[w].KindBusy[kind] += d
	r.metrics[w].Tasks++
	atomic.AddInt64(&r.pieces, 1)
	r.record(w, it.task, kind, it.lo, it.hi, false, t0.Sub(r.start), d)
	if err != nil {
		r.fail(fmt.Errorf("sched: piece [%d,%d) of %s: %w", it.lo, it.hi, r.g.Tasks[it.task].String(), err))
		return
	}
	c := it.comb
	if it.buf != nil {
		c.mu.Lock()
		c.bufs = append(c.bufs, it.buf)
		c.mu.Unlock()
	}
	if atomic.AddInt32(&c.pending, -1) == 0 {
		// This worker finished the last piece: it runs T̂n itself.
		r.process(w, item{r: r, task: c.task, comb: c, isComb: true,
			weight: int64(r.g.Tasks[c.task].Weight)})
	}
}

func (r *run) runCombiner(w int, it item) {
	kind := r.g.Tasks[it.task].Kind
	wg := r.gauges.worker(w)
	r.labels.apply(kind, wg)
	t0 := time.Now()
	err := r.st.Combine(it.task, it.comb.bufs)
	d := time.Since(t0)
	r.metrics[w].Busy += d
	r.metrics[w].KindBusy[kind] += d
	r.metrics[w].Tasks++
	r.record(w, it.task, kind, 0, -1, true, t0.Sub(r.start), d)
	if err != nil {
		r.fail(fmt.Errorf("sched: combine %s: %w", r.g.Tasks[it.task].String(), err))
		return
	}
	r.completeTask(w, it.task)
}

// completeTask is the Allocate module (lines 4–10): decrement successor
// dependency degrees and hand newly ready tasks to the least-loaded list.
func (r *run) completeTask(w int, id int) {
	tAlloc := time.Now()
	for _, s := range r.g.Tasks[id].Succs {
		if atomic.AddInt32(&r.deps[s], -1) == 0 {
			r.allocate(r.wholeItem(s))
		}
	}
	r.metrics[w].Overhead += time.Since(tAlloc)
	r.gauges.worker(w).completed.Add(1)
	if atomic.AddInt64(&r.remaining, -1) == 0 {
		r.finish()
	}
}

// record appends a trace event to the worker's private buffer.
func (r *run) record(w, task int, kind taskgraph.Kind, lo, hi int, comb bool, start, dur time.Duration) {
	if r.tbufs != nil {
		r.tbufs.record(w, task, kind, lo, hi, comb, start, dur)
	}
}

// allocate pushes a ready task onto the list with the smallest weight
// counter (line 7: j = argmin W_t).
func (r *run) allocate(it item) {
	best, bestW := 0, int64(1)<<62
	for i, l := range r.lists {
		if w := l.g.llWeight(); w < bestW {
			best, bestW = i, w
		}
	}
	r.lists[best].push(it)
}
