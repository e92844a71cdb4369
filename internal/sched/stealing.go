package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"evprop/internal/taskgraph"
)

// RunStealing executes the task graph with a work-stealing variant of the
// collaborative scheduler — the direction the paper's Section 8 sketches
// for the many-core era. Allocation still prefers the least-loaded worker,
// but an idle worker steals from the tail of the most-loaded ready list
// instead of sleeping, which removes the idle window between a bad
// placement and the next allocation.
//
// The variant trades lock granularity for simplicity: all ready lists
// share one mutex (stealing requires a consistent cross-list view), so at
// high core counts its scheduling overhead grows faster than the
// per-list-locked Run — exactly the contention trade-off the paper
// anticipates.
func RunStealing(st taskgraph.Executor, opts Options) (*Metrics, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("sched: need at least 1 worker, got %d", opts.Workers)
	}
	g := st.Graph()
	gauges := opts.Gauges
	if gauges == nil || gauges.Workers() != opts.Workers {
		gauges = NewGauges(opts.Workers)
	}
	r := &stealRun{
		st:        st,
		g:         g,
		opts:      opts,
		deps:      g.DepCounts(),
		lists:     make([]ring, opts.Workers),
		weights:   make([]int64, opts.Workers),
		remaining: int64(g.N()),
		metrics:   make([]WorkerMetrics, opts.Workers),
		gauges:    gauges,
		labels:    newLabelSet(opts.Ctx, opts.QueryID),
	}
	r.cond = sync.NewCond(&r.mu)
	start := time.Now()
	r.start = start
	if g.N() == 0 {
		m := &Metrics{Workers: r.metrics, Elapsed: time.Since(start)}
		if opts.Trace {
			m.Trace = &Trace{Workers: opts.Workers}
		}
		return m, nil
	}
	if opts.Trace {
		r.tbufs = getTraceBufs(opts.Workers)
	}
	gauges.runStarted(g.N())
	for i, id := range g.Sources() {
		r.push(i%opts.Workers, r.item(id))
	}
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(w)
		}(w)
	}
	wg.Wait()
	gauges.runFinished(atomic.LoadInt64(&r.remaining))
	// All workers have exited, so r.metrics is quiescent even on failure —
	// unlike Pool.Run, the flush here is unconditional.
	gauges.flushRun(r.metrics)
	m := &Metrics{
		Workers:   r.metrics,
		Elapsed:   time.Since(start),
		Tasks:     g.N() - int(atomic.LoadInt64(&r.remaining)),
		Pieces:    int(r.pieces),
		Partition: int(r.parted),
		Steals:    int(r.steals),
	}
	if opts.Trace {
		tr := &Trace{Workers: opts.Workers, Total: m.Elapsed, bufs: r.tbufs}
		if !opts.LazyTrace {
			tr.Finalize()
		}
		m.Trace = tr
	}
	return m, r.err
}

type stealRun struct {
	st   taskgraph.Executor
	g    *taskgraph.Graph
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond
	lists   []ring
	weights []int64
	done    bool

	deps      []int32
	remaining int64
	pieces    int64
	parted    int64
	steals    int64
	errOnce   sync.Once
	err       error
	metrics   []WorkerMetrics
	start     time.Time
	tbufs     *traceBufs // per-worker event buffers, merged lazily when tracing
	gauges    *Gauges    // shared across an engine's runs so counters accumulate
	labels    *labelSet  // pprof query/kind labels (nil when Options.QueryID == "")
}

// record appends a trace event to the worker's private buffer.
func (r *stealRun) record(w, task int, kind taskgraph.Kind, lo, hi int, comb bool, start, dur time.Duration) {
	if r.tbufs != nil {
		r.tbufs.record(w, task, kind, lo, hi, comb, start, dur)
	}
}

func (r *stealRun) item(id int) item {
	return item{task: id, lo: 0, hi: -1, weight: int64(r.g.Tasks[id].Weight)}
}

// push appends under the shared lock and wakes one sleeper.
func (r *stealRun) push(w int, it item) {
	r.mu.Lock()
	r.lists[w].pushBack(it)
	r.weights[w] += it.weight
	r.gauges.worker(w).llAdd(1, it.weight)
	r.mu.Unlock()
	r.cond.Signal()
}

// fetch pops the head of the worker's own list, or steals the tail of the
// heaviest other list, or sleeps. State transitions are published only on
// the slow paths (steal scan, park); the returned waited flag tells the
// caller to republish its executing state afterwards.
func (r *stealRun) fetch(w int) (item, bool, bool) {
	self := r.gauges.worker(w)
	waited := false
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.lists[w].len() > 0 {
			it := r.lists[w].popFront()
			r.weights[w] -= it.weight
			self.llAdd(-1, -it.weight)
			return it, true, waited
		}
		// Steal from the heaviest victim's tail.
		waited = true
		self.state.Store(int32(WorkerStealing))
		self.stealAttempts.Add(1)
		victim, best := -1, int64(0)
		for v := range r.lists {
			if v != w && r.lists[v].len() > 0 && r.weights[v] > best {
				victim, best = v, r.weights[v]
			}
		}
		if victim >= 0 {
			it := r.lists[victim].popBack()
			r.weights[victim] -= it.weight
			r.gauges.worker(victim).llAdd(-1, -it.weight)
			self.steals.Add(1)
			atomic.AddInt64(&r.steals, 1)
			return it, true, true
		}
		if r.done {
			return item{}, false, waited
		}
		self.state.Store(int32(WorkerParked))
		clearLabels(self)
		r.cond.Wait()
	}
}

func (r *stealRun) finish(err error) {
	if err != nil {
		r.errOnce.Do(func() { r.err = err })
	}
	r.mu.Lock()
	r.done = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

func (r *stealRun) worker(w int) {
	wg := r.gauges.worker(w)
	defer func() {
		wg.state.Store(int32(WorkerParked))
		clearLabels(wg)
	}()
	executing := false
	for {
		t0 := time.Now()
		it, ok, waited := r.fetch(w)
		r.metrics[w].Overhead += time.Since(t0)
		if !ok {
			return
		}
		if !executing || waited {
			wg.state.Store(int32(WorkerExecuting))
			executing = true
		}
		r.process(w, it)
	}
}

func (r *stealRun) process(w int, it item) {
	if r.loadFailed() {
		return
	}
	if r.opts.Ctx != nil {
		if err := r.opts.Ctx.Err(); err != nil {
			r.finish(err)
			return
		}
	}
	wg := r.gauges.worker(w)
	switch {
	case it.isComb:
		kind := r.g.Tasks[it.task].Kind
		r.labels.apply(kind, wg)
		t0 := time.Now()
		err := r.st.Combine(it.task, it.comb.bufs)
		d := time.Since(t0)
		r.metrics[w].Busy += d
		r.metrics[w].KindBusy[kind] += d
		r.metrics[w].Tasks++
		r.record(w, it.task, kind, 0, -1, true, t0.Sub(r.start), d)
		if err != nil {
			r.finish(err)
			return
		}
		r.complete(w, it.task)
	case it.comb != nil:
		kind := r.g.Tasks[it.task].Kind
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
			r.finish(err)
			return
		}
		c := it.comb
		if it.buf != nil {
			c.mu.Lock()
			c.bufs = append(c.bufs, it.buf)
			c.mu.Unlock()
		}
		if atomic.AddInt32(&c.pending, -1) == 0 {
			r.process(w, item{task: c.task, comb: c, isComb: true})
		}
	default:
		if r.partition(w, it.task, r.st.PartitionSize(it.task)) {
			return
		}
		kind := r.g.Tasks[it.task].Kind
		r.labels.apply(kind, wg)
		t0 := time.Now()
		err := r.st.Execute(it.task)
		d := time.Since(t0)
		r.metrics[w].Busy += d
		r.metrics[w].KindBusy[kind] += d
		r.metrics[w].Tasks++
		r.record(w, it.task, kind, 0, -1, false, t0.Sub(r.start), d)
		if err != nil {
			r.finish(err)
			return
		}
		r.complete(w, it.task)
	}
}

// partition splits task id into the pieces its partition plan sets and
// reports whether it did; the first piece runs inline.
func (r *stealRun) partition(w int, id, size int) bool {
	n, step := r.g.PartitionPlan(r.opts.Threshold).Split(id, size)
	if n == 0 {
		return false
	}
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
		it := item{task: id, lo: lo, hi: hi, comb: comb,
			weight: pieceWeight(r.g.Tasks[id].Weight, hi-lo, size),
			buf:    r.st.NewPartialBuffer(id)}
		if k == 0 {
			first = it
			continue
		}
		r.push((w+k)%r.opts.Workers, it)
	}
	r.process(w, first)
	return true
}

func (r *stealRun) complete(w, id int) {
	for _, s := range r.g.Tasks[id].Succs {
		if atomic.AddInt32(&r.deps[s], -1) == 0 {
			r.allocate(r.item(s))
		}
	}
	r.gauges.worker(w).completed.Add(1)
	if atomic.AddInt64(&r.remaining, -1) == 0 {
		r.finish(nil)
	}
}

// allocate routes a ready task to the least-loaded list.
func (r *stealRun) allocate(it item) {
	r.mu.Lock()
	best, bestW := 0, int64(1)<<62
	for w, load := range r.weights {
		if load < bestW {
			best, bestW = w, load
		}
	}
	r.lists[best].pushBack(it)
	r.weights[best] += it.weight
	r.gauges.worker(best).llAdd(1, it.weight)
	r.mu.Unlock()
	r.cond.Signal()
}

func (r *stealRun) loadFailed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done && r.err != nil
}
