package main

import "math"

// layerMetrics turns the traced run's spans and counters into the
// per-layer metrics. Means marked "miss" are over sum-product propagations
// that missed the result cache; "per_req" figures are divided by every
// request of the sequence, hits included.
func layerMetrics(p *plan, spans []span, api *apiReplay, st *stack, kern kernelTimes, traced *round, tracedLat float64) map[string]metric {
	n := float64(len(p.seq))
	type acc struct {
		sum   float64
		count int
	}
	by := map[string]*acc{}
	var propMiss acc
	for _, s := range spans {
		if s.Req < 0 {
			continue // probe and warm-up
		}
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.sum += float64(s.dur())
		a.count++
		if s.Name == "api.propagate" && s.Miss {
			propMiss.sum += float64(s.dur())
			propMiss.count++
		}
	}
	meanUs := func(name string) float64 {
		if a := by[name]; a != nil && a.count > 0 {
			return a.sum / float64(a.count) / 1e3
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	apiReq := meanUs("api.request")
	put("http.self_us", tracedLat*1e3-apiReq, "us")
	put("http.req_bytes", float64(traced.reqBytes)/n, "bytes")
	put("http.resp_bytes", float64(traced.respBytes)/n, "bytes")

	absorb, run := meanUs("state.absorb"), meanUs("sched.run")
	put("api.request_us", apiReq, "us")
	put("api.propagate_us", meanUs("api.propagate"), "us")
	put("api.posteriors_us", meanUs("api.posteriors"), "us")
	put("api.mpe_us", meanUs("api.mpe"), "us")
	put("api.allocs_per_req", float64(api.mallocs)/n, "count")
	put("api.alloc_bytes_per_req", float64(api.allocBytes)/n, "bytes")
	unattributed := 0.0
	if propMiss.count > 0 {
		unattributed = propMiss.sum/float64(propMiss.count)/1e3 - absorb - run
	}
	put("api.unattributed_us", unattributed, "us")

	hits := float64(api.after.Hits - api.before.Hits)
	lookups := hits + float64(api.after.Misses-api.before.Misses)
	put("cache.hit_ratio", ratio(hits, lookups), "fraction")
	put("cache.collapsed_ratio", ratio(float64(api.after.Collapsed-api.before.Collapsed), lookups), "fraction")
	put("cache.signature_ns", meanUs("cache.signature")*1e3, "ns")
	put("cache.entries", float64(api.after.Entries), "count")

	put("state.absorb_us", absorb, "us")
	if st.lazyProp != nil {
		put("lazy.flops_ratio", ratio(float64(st.lazyFlops.Load()), float64(st.lazyFull.Load())), "fraction")
		put("lazy.msg_skipped_per_req", float64(st.lazySkipped.Load())/n, "count")
	}

	calls := st.tasks.calls.Load() + st.tasks.pieces.Load() + st.tasks.combines.Load()
	busy := float64(st.tasks.busyNs.Load())
	put("task.count_per_req", float64(calls)/n, "count")
	put("task.pieces_per_req", float64(st.tasks.pieces.Load())/n, "count")
	put("task.busy_us_per_req", busy/1e3/n, "us")
	put("task.mean_ns", ratio(busy, float64(calls)), "ns")

	// Runs of the two closed loops overlap on one pool, so the wall time
	// the workers could have been busy is the union of the timed runs.
	var timedRuns []span
	for _, s := range spans {
		if s.Name == "tasks.sched.run" || s.Name == "tasks.sched.run.max" {
			timedRuns = append(timedRuns, s)
		}
	}
	nonbusy := 0.0
	if runWall := covered(span{Start: math.MinInt64, End: math.MaxInt64}, timedRuns); runWall > 0 {
		nonbusy = 1 - busy/(float64(st.workers)*float64(runWall))
	}
	put("sched.run_us", run, "us")
	put("sched.nonbusy_frac", nonbusy, "fraction")
	put("sched.partitioned_per_req", float64(st.partitioned.Load())/n, "count")

	for _, k := range []string{"multiply", "divide", "marginalize", "maxmarginalize", "extend"} {
		put("kernel."+k+"_ns_per_entry", kern.nsPerEntry[k], "ns")
	}
	put("kernel.bytes_per_req", kern.bytesPerProp*st.workShare.load()/n, "bytes")

	for _, stage := range compileStages {
		put("compile."+stage+"_ms", st.compileMs[stage], "ms")
	}
	return m
}
