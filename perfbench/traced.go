package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"evprop"
)

// runTraced is the -trace 1 run. It drives two untraced and two traced
// HTTP rounds, replays the same sequence in process through the evprop API
// and then down the stack by hand, cross-checks the replay against the
// server's counters, and reports per-layer metrics.
func runTraced(ctx context.Context, b *bench, o options) (*result, error) {
	p := b.plan
	res := &result{Metrics: map[string]metric{}}
	var firstErr error
	score := func(r *round) tally {
		t := b.score(r)
		res.Attempted += t.attempted
		res.Failed += t.failed
		if firstErr == nil {
			firstErr = t.firstErr
		}
		if r.memErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("stopped by the memory watchdog: %w", r.memErr)
		}
		return t
	}

	// Untraced and traced rounds alternate U T T U, so neither side gets
	// the first (coldest) round. The first traced round keeps its spans,
	// byte counts and server view.
	spans := newSpanLog(64 * len(p.seq))
	var bc byteCounter
	var plainLat, tracedLat []float64
	var traced *round
	for i, kind := range []string{"untraced", "traced", "traced", "untraced"} {
		var r *round
		var err error
		switch {
		case kind == "untraced":
			r, err = b.runRound(ctx, nil, nil)
		case traced == nil:
			r, err = b.runRound(ctx, spans, &bc)
			traced = r
		default:
			r, err = b.runRound(ctx, newSpanLog(len(p.seq)), &byteCounter{})
		}
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", kind, i, err)
		}
		lat := mean(score(r).lat)
		if kind == "untraced" {
			plainLat = append(plainLat, lat)
		} else {
			tracedLat = append(tracedLat, lat)
		}
	}
	if firstErr != nil {
		return res, firstErr
	}
	view := traced.view
	fmt.Printf("server: workers=%d scheduler=%s cache_capacity=%d lazy=%t compile_usec=%.0f\n",
		view.workers, view.scheduler, view.before.Cache.Capacity, view.lazy, view.compileUsec)

	api, err := replayAPI(b, view, spans)
	if err != nil {
		return res, err
	}
	if err := crossCheck(view, api); err != nil {
		return res, err
	}
	// The replay's engine pinned one propagation state per cached result;
	// return that memory before the by-hand passes allocate their own.
	runtime.GC()
	st, err := newStack(p, view)
	if err != nil {
		return res, err
	}
	defer st.close()
	if err := compileCheck(view, st); err != nil {
		return res, err
	}
	for _, timeTasks := range []bool{false, true} {
		if err := st.replay(b, api.misses, spans, timeTasks); err != nil {
			return res, err
		}
	}
	kern, err := st.kernels()
	if err != nil {
		return res, err
	}

	all := spans.snapshot()
	path := filepath.Join(o.outDir, "spans-"+p.w.name+".tsv")
	if err := writeSpans(path, all); err != nil {
		return res, err
	}
	fmt.Printf("spans: %d written to %s\n", len(all), path)

	m := layerMetrics(p, all, api, st, kern, traced, mean(tracedLat))
	m["trace.overhead_frac"] = metric{mean(tracedLat)/mean(plainLat) - 1, "fraction"}
	res.Metrics = m
	printBreakdown(m, mean(plainLat), mean(tracedLat), st.lazyProp != nil)
	res.Correct = true
	return res, nil
}

// apiReplay is the in-process replay through the public evprop API.
type apiReplay struct {
	before, after evprop.CacheStats
	propagations  int64
	mallocs       uint64
	allocBytes    uint64
	misses        []bool // per request: its sum-product propagation missed the cache
}

// replayAPI compiles the served model in process with the configuration
// the server reports and replays the round: probe and warm-up one at a
// time, then the sequence over the same number of closed loops.
func replayAPI(b *bench, view *serverView, spans *spanLog) (*apiReplay, error) {
	p := b.plan
	net, _, err := evprop.ParseBIF(bytes.NewReader(p.bif))
	if err != nil {
		return nil, err
	}
	eng, err := net.Compile(evprop.Options{
		Workers:   view.workers,
		Scheduler: view.scheduler,
		CacheSize: view.before.Cache.Capacity,
		Lazy:      view.lazy,
	})
	if err != nil {
		return nil, fmt.Errorf("replay compile: %w", err)
	}
	defer eng.Close()
	ask := func(req int32, q request, want answer) (bool, error) {
		root := spans.start("api.request", req, -1)
		defer root.end()
		prop := spans.start("api.propagate", req, root.id())
		res, err := eng.PropagateContext(context.Background(), evprop.Evidence(q.Evidence))
		if err != nil {
			return false, err
		}
		miss := !res.Cached()
		if miss {
			prop.miss()
		}
		prop.end()
		defer res.Close()
		got := answer{PEvidence: res.ProbabilityOfEvidence()}
		if q.MPE {
			sp := spans.start("api.mpe", req, root.id())
			got.Assignment, got.Probability, err = res.MPE()
			sp.end()
		} else {
			sp := spans.start("api.posteriors", req, root.id())
			got.Posteriors, err = res.Posteriors(q.Targets...)
			sp.end()
		}
		if err != nil {
			return false, err
		}
		return miss, compare(q, want, got, b.tol)
	}
	// Probe and warm-up spans use negative request numbers below -1 so they
	// never mix with the sequence's.
	if _, err := ask(-2, p.probe, b.wantProbe); err != nil {
		return nil, fmt.Errorf("replay probe: %w", err)
	}
	for i, q := range p.warmup {
		if _, err := ask(int32(-3-i), q, b.wantWarm[i]); err != nil {
			return nil, fmt.Errorf("replay warm-up %d: %w", i, err)
		}
	}

	r := &apiReplay{before: eng.CacheStats(), misses: make([]bool, len(p.seq))}
	props0 := eng.Stats().Propagations
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, p.w.conns)
	for g := 0; g < p.w.conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.seq) {
					return
				}
				miss, err := ask(int32(i), p.seq[i], b.wantSeq[i])
				if err != nil {
					errs[g] = fmt.Errorf("replay request %d: %w", i, err)
					return
				}
				r.misses[i] = miss
			}
		}(g)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.after = eng.CacheStats()
	r.propagations = eng.Stats().Propagations - props0
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return r, nil
}

// crossCheck holds the replay to the server's own counters over the same
// sequence, so layer numbers are never reported for a different program.
// Every cache miss that did not collapse onto another caller's run is one
// propagation; an MPE request misses twice (sum- and max-product).
func crossCheck(v *serverView, a *apiReplay) error {
	type pair struct {
		name           string
		server, replay int64
	}
	sb, sa := v.before, v.after
	checks := []pair{
		{"propagations", sa.Propagations - sb.Propagations, a.propagations},
		{"cache hits", sa.Cache.Hits - sb.Cache.Hits, a.after.Hits - a.before.Hits},
		{"cache misses", sa.Cache.Misses - sb.Cache.Misses, a.after.Misses - a.before.Misses},
		{"cache collapsed", sa.Cache.Collapsed - sb.Cache.Collapsed, a.after.Collapsed - a.before.Collapsed},
		{"replay misses-collapsed vs propagations", a.propagations,
			(a.after.Misses - a.before.Misses) - (a.after.Collapsed - a.before.Collapsed)},
	}
	var bad []string
	for _, c := range checks {
		fmt.Printf("cross-check %s: server %d, replay %d\n", c.name, c.server, c.replay)
		if c.server != c.replay {
			bad = append(bad, c.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("replay does not match the server (%v); layer metrics withheld", bad)
	}
	return nil
}

// compileCheck compares the server's reported compile time with the by-hand
// compile stages. Both time the same steps in different processes, so only
// a gap of an order of magnitude, a different program, is a mismatch.
func compileCheck(v *serverView, st *stack) error {
	ours := st.compileUsec(v.lazy)
	ratio := v.compileUsec / ours
	fmt.Printf("cross-check compile: server %.0f us, by-hand stages %.0f us (ratio %.2f)\n", v.compileUsec, ours, ratio)
	if ratio < 0.1 || ratio > 10 {
		return fmt.Errorf("server compile time %.0f us is not the by-hand compile's %.0f us; layer metrics withheld", v.compileUsec, ours)
	}
	return nil
}

// printBreakdown prints the layers next to the end-to-end mean, so they can
// be seen to add up.
func printBreakdown(m map[string]metric, plainLat, tracedLat float64, lazy bool) {
	v := func(name string) float64 { return m[name].Value }
	fmt.Printf("end-to-end mean latency: untraced %.1f us, traced %.1f us (overhead %.2f%%)\n",
		plainLat*1e3, tracedLat*1e3, 100*v("trace.overhead_frac"))
	fmt.Printf("  http self                 %10.1f us\n", v("http.self_us"))
	fmt.Printf("  api request               %10.1f us\n", v("api.request_us"))
	fmt.Printf("    propagate (all)         %10.1f us\n", v("api.propagate_us"))
	fmt.Printf("      state absorb (miss)   %10.1f us\n", v("state.absorb_us"))
	fmt.Printf("      sched run (miss)      %10.1f us (task busy %.1f us/req, non-busy %.3f)\n",
		v("sched.run_us"), v("task.busy_us_per_req"), v("sched.nonbusy_frac"))
	fmt.Printf("      unattributed (miss)   %10.1f us\n", v("api.unattributed_us"))
	fmt.Printf("    posteriors              %10.1f us\n", v("api.posteriors_us"))
	fmt.Printf("    mpe                     %10.1f us\n", v("api.mpe_us"))
	fmt.Printf("  cache hit ratio %.3f, signature %.0f ns; kernel bytes/req %.0f (computed from table sizes)\n",
		v("cache.hit_ratio"), v("cache.signature_ns"), v("kernel.bytes_per_req"))
	if lazy {
		fmt.Printf("  lazy flops ratio %.3f, messages skipped/req %.1f\n", v("lazy.flops_ratio"), v("lazy.msg_skipped_per_req"))
	}
}
