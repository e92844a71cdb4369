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
//
// A pool built by NewStealingPool runs the work-stealing direction the
// paper's Section 8 sketches for the many-core era. It changes only Fetch:
// a worker whose own list is empty takes the tail of the list with the
// largest weight counter instead of sleeping, and parks only when no list
// has work. Allocate, Partition and Execute are the same code in both
// modes.
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
}

// WorkerMetrics records per-worker accounting for the paper's Fig. 8.
type WorkerMetrics struct {
	// Busy is the time spent inside node-level primitives ("computation
	// time" in the paper).
	Busy time.Duration
	// Overhead is the time spent in the Allocate and Partition modules
	// (lock waits included). Fetch is not attributed, in either mode:
	// pooled workers park and steal across unrelated runs while idle.
	Overhead time.Duration
	// Tasks counts executed items (tasks, pieces and combiners).
	Tasks int
	// KindBusy splits Busy by primitive kind, indexed by taskgraph.Kind.
	KindBusy [taskgraph.NumKinds]time.Duration
}

// addBusy charges one executed item of primitive kind, which took d, to
// the worker's computation time.
func (m *WorkerMetrics) addBusy(kind taskgraph.Kind, d time.Duration) {
	m.Busy += d
	m.KindBusy[kind] += d
	m.Tasks++
}

// Metrics aggregates a run.
type Metrics struct {
	Workers   []WorkerMetrics
	Elapsed   time.Duration
	Tasks     int // original graph tasks completed
	Pieces    int // partitioned pieces executed
	Partition int // tasks that were partitioned
	Steals    int // items taken from another worker's list (steal mode only)
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

// combinerPool recycles combiners. A combiner is dead once its combining
// subtask ran — every piece has finished with it — and a reused one keeps
// its bufs capacity, so partitioning a task allocates nothing in steady
// state.
var combinerPool sync.Pool

func newCombiner(task, pieces int) *combiner {
	c, _ := combinerPool.Get().(*combiner)
	if c == nil {
		c = &combiner{}
	}
	c.task, c.pending = task, int32(pieces)
	return c
}

// release returns a combiner whose combining subtask ran to the pool,
// dropping its buffer references.
func (c *combiner) release() {
	clear(c.bufs)
	c.bufs = c.bufs[:0]
	combinerPool.Put(c)
}

// localList is a worker's local ready list (LL). Any worker may push (the
// Allocate module) and, in steal mode, pop its tail, so it is
// lock-protected. The paper's W_i weight counter lives in the gauge slot's
// packed LL word, where it doubles as the live queue-weight gauge — one
// atomic add maintains both.
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

// push queues it and signals the owner. It reports whether the item
// queued behind another one.
func (l *localList) push(it item) bool {
	l.mu.Lock()
	l.items.pushBack(it)
	l.g.llAdd(1, it.weight)
	behind := l.items.len() > 1
	l.mu.Unlock()
	l.cond.Signal()
	return behind
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
	steal  bool // Fetch falls back to stealing (NewStealingPool)
	wg     sync.WaitGroup
	closed atomic.Bool
}

// NewPool starts workers parked goroutines and returns the pool. Close
// releases them.
func NewPool(workers int) (*Pool, error) { return newPool(workers, false) }

// NewStealingPool is NewPool in steal mode: a worker whose own ready list
// is empty steals the tail of the list with the largest W_i before it
// parks (the paper's Section 8 direction).
func NewStealingPool(workers int) (*Pool, error) { return newPool(workers, true) }

func newPool(workers int, steal bool) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sched: need at least 1 worker, got %d", workers)
	}
	p := &Pool{lists: make([]*localList, workers), gauges: NewGauges(workers), steal: steal}
	for i := range p.lists {
		p.lists[i] = newLocalList(p.gauges.worker(i))
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			wg := p.gauges.worker(w)
			executing := false
			for {
				it, ok, waited := p.fetch(w)
				if !ok {
					wg.state.Store(int32(WorkerParked))
					return
				}
				// Publish the executing state only when it could have
				// changed (first item, or after a park or steal) — the
				// fast path stays free of state stores.
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

// fetch is worker w's Fetch module: it pops the head of the worker's own
// list, blocking until an item is available or the list is stopped. Queued
// items are always drained before a stop takes effect. In steal mode an
// empty list sends the worker stealing first, and it parks only when no
// list has work. fetch publishes the stealing and parked transitions, but
// only on these slow paths — the returned waited flag tells the caller to
// republish its executing state. A worker draining a hot list therefore
// performs no state stores at all.
func (p *Pool) fetch(w int) (item, bool, bool) {
	l := p.lists[w]
	waited, scanned := false, false
	l.mu.Lock()
	for {
		if l.items.len() > 0 {
			it := l.items.popFront()
			l.g.llAdd(-1, -it.weight)
			l.mu.Unlock()
			return it, true, waited
		}
		if l.stopped {
			l.mu.Unlock()
			return item{}, false, waited
		}
		waited = true
		if p.steal && !scanned {
			l.mu.Unlock()
			if it, ok := p.stealFor(w); ok {
				return it, true, true
			}
			// Recheck the own list under its lock before parking: a push
			// that landed during the scan signalled nobody yet waiting.
			scanned = true
			l.mu.Lock()
			continue
		}
		l.g.state.Store(int32(WorkerParked))
		clearLabels(l.g)
		l.cond.Wait()
		scanned = false
	}
}

// stealFor takes, for worker w, the tail item of the other list with the
// largest W_i. The victim is chosen from the lock-free gauge words, so
// only the victim's list is locked. It reports false when no list has
// work.
func (p *Pool) stealFor(w int) (item, bool) {
	self := p.lists[w].g
	self.state.Store(int32(WorkerStealing))
	self.stealAttempts.Add(1)
	for {
		victim, best := -1, int64(-1)
		for v, l := range p.lists {
			packed := l.g.llPacked.Load()
			if v != w && packed>>llDepthShift > 0 && packed&llWeightMask > best {
				victim, best = v, packed&llWeightMask
			}
		}
		if victim < 0 {
			return item{}, false
		}
		l := p.lists[victim]
		l.mu.Lock()
		if l.items.len() == 0 {
			// Drained since the scan; the gauge word already shows it.
			l.mu.Unlock()
			continue
		}
		it := l.items.popBack()
		l.g.llAdd(-1, -it.weight)
		l.mu.Unlock()
		self.steals.Add(1)
		atomic.AddInt64(&it.r.steals, 1)
		return it, true
	}
}

// push hands an item to list i and signals its owner. In steal mode a push
// onto the list of a busy owner — one that is not parked, or has an item
// queued before this one — also wakes one parked worker to steal it. That
// wake is only a latency hint: a worker about to park can miss it, and the
// owner, which was signalled, still runs the item.
func (p *Pool) push(i int, it item) {
	l := p.lists[i]
	behind := l.push(it)
	if !p.steal || !behind && l.g.state.Load() == int32(WorkerParked) {
		return
	}
	for k := 1; k < len(p.lists); k++ {
		t := p.lists[(i+k)%len(p.lists)]
		if t.g.state.Load() == int32(WorkerParked) {
			// A worker publishes parked under its list lock, so once the
			// lock is ours it is inside Wait (or already woken) and the
			// signal cannot be lost to the gap before Wait.
			t.mu.Lock()
			t.mu.Unlock()
			t.cond.Signal()
			return
		}
	}
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
	p         *Pool
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
	steals   int64
	start    time.Time
	tbufs    *traceBufs // per-worker event buffers, merged lazily when tracing
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
		p:         p,
		remaining: int64(g.N()),
		metrics:   make([]WorkerMetrics, len(p.lists)),
		done:      make(chan struct{}),
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
		p.push(i%len(p.lists), r.wholeItem(id))
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
		Steals:    int(atomic.LoadInt64(&r.steals)),
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
	return runOnce(NewPool, st, opts)
}

// RunStealing is Run on a transient steal-mode pool (NewStealingPool).
func RunStealing(st taskgraph.Executor, opts Options) (*Metrics, error) {
	return runOnce(NewStealingPool, st, opts)
}

func runOnce(newPool func(int) (*Pool, error), st taskgraph.Executor, opts Options) (*Metrics, error) {
	p, err := newPool(opts.Workers)
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
		r.runPiece(w, it, r.now())
	default:
		// Lines 12–18: partition large tasks, execute small ones whole.
		if r.partition(w, it.task, r.st.PartitionSize(it.task)) {
			return
		}
		kind := r.g.Tasks[it.task].Kind
		wg := r.p.gauges.worker(w)
		r.labels.apply(kind, wg)
		t0 := r.now()
		err := r.st.Execute(it.task)
		t1 := r.now()
		r.metrics[w].addBusy(kind, t1-t0)
		r.record(w, it.task, kind, 0, -1, false, t0, t1-t0)
		if err != nil {
			r.fail(fmt.Errorf("sched: task %s: %w", r.g.Tasks[it.task].String(), err))
			return
		}
		r.completeTask(w, it.task, t1)
	}
}

// now reads the run's clock: the monotonic offset from the run's start.
// Every timestamp of a run (metrics and trace events) is one such read,
// and the reads chain — the read that closes an Execute opens the
// Allocate after it — so a task costs three reads of the monotonic clock.
func (r *run) now() time.Duration { return time.Since(r.start) }

// partition splits task id, whose range spans size entries, into the
// pieces its partition plan sets (line 13) and reports whether it did: the
// first piece runs inline, the rest are spread evenly over the local lists,
// and a combiner item fires when the last piece finishes.
func (r *run) partition(w int, id, size int) bool {
	n, step := r.g.PartitionPlan(r.opts.Threshold).Split(id, size)
	if n == 0 {
		return false
	}
	tPart := r.now()
	comb := newCombiner(id, n)
	atomic.AddInt64(&r.parted, 1)
	r.p.gauges.worker(w).partitions.Add(1)
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
		slot := int(atomic.AddUint64(&r.rr, 1) % uint64(len(r.p.lists)))
		r.p.push(slot, it)
	}
	t0 := r.now()
	r.metrics[w].Overhead += t0 - tPart
	r.runPiece(w, first, t0)
	return true
}

// pieceWeight prorates a task's weight over a piece's span, so the snapped
// (and possibly short final) pieces load the W_i counters in proportion to
// the work they actually carry.
func pieceWeight(taskW float64, span, size int) int64 {
	return int64(taskW*float64(span)/float64(size)) + 1
}

// runPiece executes one piece that starts at run time t0 (the read that
// closed the preceding Partition, when there was one).
func (r *run) runPiece(w int, it item, t0 time.Duration) {
	kind := r.g.Tasks[it.task].Kind
	wg := r.p.gauges.worker(w)
	r.labels.apply(kind, wg)
	err := r.st.ExecutePiece(it.task, it.lo, it.hi, it.buf)
	t1 := r.now()
	r.metrics[w].addBusy(kind, t1-t0)
	atomic.AddInt64(&r.pieces, 1)
	r.record(w, it.task, kind, it.lo, it.hi, false, t0, t1-t0)
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
	wg := r.p.gauges.worker(w)
	r.labels.apply(kind, wg)
	t0 := r.now()
	err := r.st.Combine(it.task, it.comb.bufs)
	t1 := r.now()
	it.comb.release()
	r.metrics[w].addBusy(kind, t1-t0)
	r.record(w, it.task, kind, 0, -1, true, t0, t1-t0)
	if err != nil {
		r.fail(fmt.Errorf("sched: combine %s: %w", r.g.Tasks[it.task].String(), err))
		return
	}
	r.completeTask(w, it.task, t1)
}

// completeTask is the Allocate module (lines 4–10): decrement successor
// dependency degrees and hand newly ready tasks to the least-loaded list.
// tAlloc is the read that closed the task's Execute.
func (r *run) completeTask(w int, id int, tAlloc time.Duration) {
	for _, s := range r.g.Tasks[id].Succs {
		if atomic.AddInt32(&r.deps[s], -1) == 0 {
			r.allocate(r.wholeItem(s))
		}
	}
	r.metrics[w].Overhead += r.now() - tAlloc
	r.p.gauges.worker(w).completed.Add(1)
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
	for i, l := range r.p.lists {
		if w := l.g.llWeight(); w < bestW {
			best, bestW = i, w
		}
	}
	r.p.push(best, it)
}
