package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"evprop/internal/bayesnet"
	"evprop/internal/bif"
	"evprop/internal/cache"
	"evprop/internal/jtree"
	"evprop/internal/lazy"
	"evprop/internal/potential"
	"evprop/internal/sched"
	"evprop/internal/taskgraph"
)

// compileRepeats is how many times the by-hand compile runs; each stage
// reports its median.
const compileRepeats = 5

// stack is the served model built by hand from the internal packages, the
// way evprop.Network.Compile builds it, with each stage timed.
type stack struct {
	net       *bayesnet.Network
	tree      *jtree.Tree // rerooted, materialized
	graph     *taskgraph.Graph
	lazyProp  *lazy.Prop // nil unless the server's engine is lazy
	pool      *sched.Pool
	workers   int
	threshold int
	cacheOn   bool
	compileMs map[string]float64 // stage -> median ms

	tasks taskAgg
	// Per by-hand propagation: δ-partitioned tasks, and the share of an
	// eager propagation's table entries it processed (1 when eager).
	partitioned atomic.Int64
	workShare   atomicFloat
	lazyFlops   atomic.Int64
	lazyFull    atomic.Int64
	lazySkipped atomic.Int64
}

var compileStages = []string{"parse", "jtree", "reroot", "graph", "precal"}

func newStack(p *plan, v *serverView) (*stack, error) {
	if v.scheduler != "collaborative" {
		return nil, fmt.Errorf("by-hand replay drives sched.Pool, the collaborative scheduler; server runs %q", v.scheduler)
	}
	s := &stack{workers: v.workers, cacheOn: v.before.Cache.Capacity > 0, compileMs: map[string]float64{}}
	times := map[string][]float64{}
	for i := 0; i < compileRepeats; i++ {
		lap := time.Now()
		stage := func(name string) {
			times[name] = append(times[name], float64(time.Since(lap))/1e6)
			lap = time.Now()
		}
		doc, err := bif.Parse(bytes.NewReader(p.bif))
		if err != nil {
			return nil, err
		}
		net, _, err := doc.ToNetwork()
		if err != nil {
			return nil, err
		}
		if err := net.Validate(); err != nil {
			return nil, err
		}
		stage("parse")
		tree, err := net.Compile()
		if err != nil {
			return nil, err
		}
		if err := tree.Validate(); err != nil {
			return nil, err
		}
		stage("jtree")
		work := tree.Clone()
		if r := work.SelectRoot(); r != work.Root {
			if work, err = work.Reroot(r); err != nil {
				return nil, err
			}
		}
		stage("reroot")
		g := taskgraph.Build(work)
		if err := g.Validate(); err != nil {
			return nil, err
		}
		stage("graph")
		// Precalibration is timed whether or not the server's engine is
		// lazy; it counts toward the server's compile only when it is.
		lp, err := lazy.New(work, g)
		if err != nil {
			return nil, err
		}
		stage("precal")
		s.net, s.tree, s.graph = net, work, g
		if v.lazy {
			s.lazyProp = lp
		}
	}
	for name, ts := range times {
		s.compileMs[name] = median(ts)
	}
	// The automatic δ evprop.Network.Compile picks: twice the mean clique
	// table, rounded up to a cache line of float64 entries.
	total := 0
	for i := range s.tree.Cliques {
		total += s.tree.Cliques[i].TableSize()
	}
	s.threshold = (2*total/s.tree.N() + 7) / 8 * 8
	pool, err := sched.NewPool(s.workers)
	if err != nil {
		return nil, err
	}
	s.pool = pool
	return s, nil
}

func (s *stack) close() { s.pool.Close() }

// compileUsec is the by-hand equivalent of the server's compile_usec.
func (s *stack) compileUsec(lazy bool) float64 {
	ms := 0.0
	for _, st := range compileStages {
		if st != "precal" || lazy {
			ms += s.compileMs[st]
		}
	}
	return ms * 1e3
}

// keepTaskSpans is how many leading requests of the sequence keep their
// individual task spans in the written span file; the task metrics count
// every task of every request.
const keepTaskSpans = 16

// replay computes every request's cache signature and drives every request
// whose API-level propagation missed the cache down the stack: absorb the evidence into a state, run the collaborative
// pool on the executor, read the marginals. An MPE request also runs the
// max-product pass. With timeTasks the executor is wrapped so every
// Execute, ExecutePiece and Combine call is timed; that pass is kept apart
// because its clock reads would inflate sched.run, which the
// reconciliation compares with the API's propagation time.
func (s *stack) replay(b *bench, misses []bool, spans *spanLog, timeTasks bool) error {
	p := b.plan
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, p.w.conns)
	for g := 0; g < p.w.conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var states [2]*taskgraph.State // per semiring, reused via Reset
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.seq) {
					return
				}
				if err := s.request(int32(i), p.seq[i], misses[i], b.wantSeq[i], b.tol, &states, spans, timeTasks); err != nil {
					errs[g] = fmt.Errorf("by-hand request %d: %w", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sigSink keeps the timed signature computation from being optimized away.
var sigSink string

// propState is what the replay reads back from either engine's state.
type propState interface {
	taskgraph.Executor
	Marginal(v int) (*potential.Potential, error)
}

// request replays one request. Span names of the task-timing pass start
// with "tasks." so the two passes never mix.
func (s *stack) request(req int32, q request, miss bool, want answer, tol float64, states *[2]*taskgraph.State, spans *spanLog, timeTasks bool) error {
	if timeTasks && !miss {
		return nil
	}
	ev := potential.Evidence{}
	for name, state := range q.Evidence {
		id := s.net.ID(name)
		if id < 0 {
			return fmt.Errorf("unknown variable %q", name)
		}
		ev[id] = state
	}
	prefix := ""
	if timeTasks {
		prefix = "tasks."
	}
	root := spans.start(prefix+"stack.request", req, -1)
	defer root.end()
	modes := []taskgraph.Mode{taskgraph.SumProduct}
	if q.MPE {
		modes = append(modes, taskgraph.MaxProduct)
	}
	for _, mode := range modes {
		suffix := ""
		if mode == taskgraph.MaxProduct {
			suffix = ".max"
		}
		if !timeTasks {
			// Every request computes its signature, hit or miss.
			sig := spans.start("cache.signature"+suffix, req, root.id())
			sigSink = cache.Signature(byte(mode), ev, nil)
			sig.end()
		}
		if !miss {
			return nil
		}

		ab := spans.start(prefix+"state.absorb"+suffix, req, root.id())
		var st propState
		var lst *lazy.State
		if s.lazyProp != nil {
			var err error
			if lst, err = s.lazyProp.NewState(mode, ev, nil); err != nil {
				return err
			}
			st = lst
		} else {
			// The engine recycles a state through Reset only when no cache
			// entry pins it; with the result cache on, every miss's state
			// is pinned, so each propagation allocates a fresh one.
			est := states[mode]
			if est == nil || s.cacheOn {
				var err error
				if est, err = s.graph.NewStateMode(mode); err != nil {
					return err
				}
				states[mode] = est
			} else {
				est.Reset(mode)
			}
			if err := est.AbsorbEvidence(ev); err != nil {
				return err
			}
			st = est
		}
		ab.end()

		run := spans.start(prefix+"sched.run"+suffix, req, root.id())
		var exec taskgraph.Executor = st
		var x *timedExec
		if timeTasks {
			x = &timedExec{Executor: st, spans: spans, req: req, parent: run.id(), agg: &s.tasks}
			exec = x
		}
		m, err := s.pool.Run(exec, sched.Options{Workers: s.workers, Threshold: s.threshold, Trace: true, LazyTrace: true})
		run.end()
		if err != nil {
			return err
		}
		if m.Trace != nil {
			m.Trace.Release()
		}
		if x != nil {
			x.flush(req < keepTaskSpans)
			continue
		}
		s.partitioned.Add(int64(m.Partition))

		if mode == taskgraph.SumProduct {
			mg := spans.start("state.marginals", req, root.id())
			for _, t := range q.Targets {
				pm, err := st.Marginal(s.net.ID(t))
				if err != nil {
					return err
				}
				for k, w := range want.Posteriors[t] {
					if math.Abs(pm.Data[k]-w) > tol {
						return fmt.Errorf("posterior %s[%d] = %v, want %v", t, k, pm.Data[k], w)
					}
				}
			}
			mg.end()
		}
		if lst != nil {
			ls := lst.Stats()
			s.lazyFlops.Add(ls.Flops)
			s.lazyFull.Add(ls.FlopsFull)
			s.lazySkipped.Add(ls.MessagesSkipped)
			s.workShare.add(float64(ls.Flops) / float64(ls.FlopsFull))
		} else {
			s.workShare.add(1)
		}
	}
	return nil
}

// taskAgg totals the executor calls of every timed run.
type taskAgg struct {
	calls, pieces, combines, busyNs atomic.Int64
}

// timedExec wraps an executor for one run, timing every Execute,
// ExecutePiece and Combine call. Spans collect in a per-run buffer, so the
// workers of concurrent runs do not contend on the span log.
type timedExec struct {
	taskgraph.Executor
	spans       *spanLog
	req, parent int32
	agg         *taskAgg
	mu          sync.Mutex
	buf         []span
}

func (x *timedExec) Execute(id int) error {
	t0 := x.spans.now()
	err := x.Executor.Execute(id)
	x.record("task.execute", t0, &x.agg.calls)
	return err
}

func (x *timedExec) ExecutePiece(id, lo, hi int, buf *potential.Potential) error {
	t0 := x.spans.now()
	err := x.Executor.ExecutePiece(id, lo, hi, buf)
	x.record("task.piece", t0, &x.agg.pieces)
	return err
}

func (x *timedExec) Combine(id int, bufs []*potential.Potential) error {
	t0 := x.spans.now()
	err := x.Executor.Combine(id, bufs)
	x.record("task.combine", t0, &x.agg.combines)
	return err
}

func (x *timedExec) record(name string, t0 int64, n *atomic.Int64) {
	t1 := x.spans.now()
	n.Add(1)
	x.agg.busyNs.Add(t1 - t0)
	x.mu.Lock()
	x.buf = append(x.buf, span{Parent: x.parent, Req: x.req, Name: name, Start: t0, End: t1})
	x.mu.Unlock()
}

// flush hands the run's task spans to the span log, or drops them.
func (x *timedExec) flush(keep bool) {
	if keep {
		x.spans.addAll(x.buf)
	}
	x.buf = nil
}

// atomicFloat is a float64 sum safe for concurrent adds.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// kernelTimes are ns per table entry of each primitive, run over the
// served tree's own clique/separator pairs, plus the bytes one eager
// two-pass propagation moves, computed from table sizes.
type kernelTimes struct {
	nsPerEntry   map[string]float64
	bytesPerProp float64
}

// kernelBudget bounds the time spent timing each primitive.
const kernelBudget = 200 * time.Millisecond

func (s *stack) kernels() (kernelTimes, error) {
	t := s.tree
	type edge struct {
		child, parent    *potential.Potential // working copies of the clique tables
		sep, ones        *potential.Potential // separator-domain buffers
		extChild, extPar *potential.Potential // extension targets
	}
	cl := make([]*potential.Potential, t.N())
	for i := range t.Cliques {
		cl[i] = t.Cliques[i].Pot.Clone()
	}
	var edges []edge
	var bytesPerProp float64
	entries := map[string]float64{}
	for i := range t.Cliques {
		c := &t.Cliques[i]
		if c.Parent < 0 {
			continue
		}
		par := &t.Cliques[c.Parent]
		ones, err := potential.NewConstant(c.SepVars, c.SepCard, 1)
		if err != nil {
			return kernelTimes{}, err
		}
		edges = append(edges, edge{
			child: cl[i], parent: cl[c.Parent],
			sep: c.SepPot.Clone(), ones: ones,
			extChild: potential.MustNew(c.Vars, c.Card), extPar: potential.MustNew(par.Vars, par.Card),
		})
		sc, sp, ss := float64(c.TableSize()), float64(par.TableSize()), float64(c.SepSize())
		entries["marginalize"] += sc + sp
		entries["maxmarginalize"] += sc + sp
		entries["divide"] += 2 * ss
		entries["extend"] += sc + sp
		entries["multiply"] += sc + sp
		// Per direction, in float64 words: marginalize reads the source
		// and writes the separator; divide reads two separators and writes
		// two; extend reads the ratio and writes the target-sized
		// extension; multiply reads the extension and rewrites the target.
		bytesPerProp += 8 * ((sc + ss) + (sp + ss) + 2*4*ss + (ss + sp) + (ss + sc) + 3*sp + 3*sc)
	}
	// Dividing and multiplying by ones keeps every table unchanged, so
	// repeated passes time the same arithmetic on the same values.
	passes := map[string]func(e *edge) error{
		"marginalize": func(e *edge) error {
			return errors.Join(e.child.MarginalInto(e.sep, 0, e.child.Len()), e.parent.MarginalInto(e.sep, 0, e.parent.Len()))
		},
		"maxmarginalize": func(e *edge) error {
			return errors.Join(e.child.MaxMarginalInto(e.sep, 0, e.child.Len()), e.parent.MaxMarginalInto(e.sep, 0, e.parent.Len()))
		},
		"divide": func(e *edge) error {
			return errors.Join(e.sep.DivRange(e.ones, 0, e.sep.Len()), e.sep.DivRange(e.ones, 0, e.sep.Len()))
		},
		"extend": func(e *edge) error {
			return errors.Join(e.ones.ExtendInto(e.extChild, 0, e.extChild.Len()), e.ones.ExtendInto(e.extPar, 0, e.extPar.Len()))
		},
		"multiply": func(e *edge) error {
			return errors.Join(e.child.MulRange(e.extChild, 0, e.child.Len()), e.parent.MulRange(e.extPar, 0, e.parent.Len()))
		},
	}
	out := kernelTimes{nsPerEntry: map[string]float64{}, bytesPerProp: bytesPerProp}
	for _, name := range []string{"extend", "multiply", "divide", "marginalize", "maxmarginalize"} {
		pass := passes[name]
		var perPass []float64
		deadline := time.Now().Add(kernelBudget)
		for len(perPass) < 5 || time.Now().Before(deadline) {
			t0 := time.Now()
			for k := range edges {
				if err := pass(&edges[k]); err != nil {
					return kernelTimes{}, fmt.Errorf("kernel %s: %w", name, err)
				}
			}
			perPass = append(perPass, float64(time.Since(t0)))
		}
		out.nsPerEntry[name] = median(perPass) / entries[name]
	}
	return out, nil
}
