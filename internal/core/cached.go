package core

import (
	"context"
	"maps"
	"time"

	"evprop/internal/cache"
	"evprop/internal/obs"
	otrace "evprop/internal/obs/trace"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// The shared-evidence result cache: serving traffic is heavily skewed
// toward a small set of evidence configurations, so completed propagation
// results are retained in a sharded LRU keyed by the canonical signature of
// (semiring mode, hard evidence, soft evidence), and concurrent queries
// with one signature collapse into a single propagation via a
// context-aware singleflight group.
//
// Cached results are *pinned*: their propagation state never returns to
// the engine's state pool, so any number of concurrent readers may derive
// posteriors from one shared result while later propagations recycle
// other states freely. Readers touch only the calibrated clique and
// separator tables, so an eager result hands its message scratch back to
// the graph's pool the moment it is pinned: a cache entry retains about a
// third of the floats a full state holds, and the next miss reuses the
// scratch instead of allocating its own. Lazy results keep theirs — their
// distribute pass runs on demand, inside the readers. Eviction and
// invalidation simply drop the pinned result — readers still holding it
// keep valid immutable data, and the garbage collector reclaims it when
// the last reader lets go.

// PropagateCachedContext is PropagateSoftContext through the result cache:
// a hit returns the shared pinned result of an earlier identical
// propagation, a miss propagates once — collapsing concurrent identical
// misses into that one run — and caches the result. cached reports whether
// this call was served without starting its own propagation (a cache hit
// or a collapsed singleflight waiter). like may be nil for hard-only
// evidence. Engines compiled without a cache fall back to a plain
// propagation with cached == false.
//
// A waiter's cancellation is its own: the shared propagation keeps running
// for the other waiters and is cancelled only when none remain.
func (e *Engine) PropagateCachedContext(ctx context.Context, ev potential.Evidence, like potential.Likelihood) (res *Result, cached bool, err error) {
	return e.propagateCached(ctx, ev, like, taskgraph.SumProduct)
}

// PropagateMaxCachedContext is PropagateMaxContext through the result
// cache. Sum- and max-product results are keyed under distinct signatures,
// so the two semirings never serve each other's tables.
func (e *Engine) PropagateMaxCachedContext(ctx context.Context, ev potential.Evidence) (res *Result, cached bool, err error) {
	return e.propagateCached(ctx, ev, nil, taskgraph.MaxProduct)
}

func (e *Engine) propagateCached(ctx context.Context, ev potential.Evidence, like potential.Likelihood, mode taskgraph.Mode) (*Result, bool, error) {
	if e.cache == nil {
		res, err := e.propagateFull(ctx, ev, like, mode)
		return res, false, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	sp := otrace.FromContext(ctx)
	sig := cache.Signature(byte(mode), ev, like)
	lsp := sp.StartChild("cache.lookup")
	if v, ok := e.cache.Get(sig); ok {
		lsp.SetAttr(otrace.Bool("cache.hit", true))
		lsp.End()
		e.recordCached(ctx, mode.String(), sig, ev, time.Since(start))
		return v.(*Result), true, nil
	}
	lsp.SetAttr(otrace.Bool("cache.hit", false))
	lsp.End()
	// The generation is read before the propagation starts: should an
	// InvalidateCache land while the run is in flight, the Add below is
	// dropped and the (potentially stale) result is never cached.
	gen := e.cache.Generation()
	fsp := sp.StartChild("singleflight")
	v, err, shared := e.flight.Do(ctx, sig, func(runCtx context.Context) (any, error) {
		res, err := e.propagateFull(runCtx, ev, like, mode)
		if err != nil {
			return nil, err
		}
		res.pinned = true
		if est, ok := res.state.(*taskgraph.State); ok {
			// The run completed, so no worker touches the scratch again.
			est.ReleaseScratch()
		}
		e.cache.Add(sig, res, gen)
		return res, nil
	})
	if shared {
		fsp.SetAttr(otrace.String("role", "waiter"))
	} else {
		fsp.SetAttr(otrace.String("role", "leader"))
	}
	if err != nil {
		fsp.Fail(err.Error())
	}
	fsp.End()
	if err != nil {
		return nil, false, err
	}
	if shared {
		e.collapsed.Add(1)
		e.recordCached(ctx, mode.String(), sig, ev, time.Since(start))
	}
	return v.(*Result), shared, nil
}

// recordCached leaves a cache-served query's summary in the flight
// recorder, marked Cached. No scheduler ran, so there are no metrics, the
// latency (a lookup, or a singleflight wait) stays out of the adaptive
// slow-threshold histogram, and the record can never be captured as slow.
func (e *Engine) recordCached(ctx context.Context, mode, sig string, ev potential.Evidence, elapsed time.Duration) {
	rec := e.opts.Recorder
	if rec == nil {
		return
	}
	id := obs.QueryIDFrom(ctx)
	if id == "" {
		id = obs.NewQueryID()
	}
	info := obs.RunInfo{
		ID:           id,
		Mode:         mode,
		EvidenceVars: len(ev),
		Elapsed:      elapsed,
		Cached:       true,
		EvidenceSig:  sig,
	}
	if e.opts.RecordEvidence {
		info.Evidence = maps.Clone(ev)
	}
	rec.RecordRun(info, nil)
}

// EvidenceSignature returns the sum-product cache key of an evidence
// configuration — the signature under which PropagateCachedContext would
// look it up. Callers above the engine (server-side request coalescing) use
// it to group identical queries without propagating.
func (e *Engine) EvidenceSignature(ev potential.Evidence, like potential.Likelihood) string {
	return cache.Signature(byte(taskgraph.SumProduct), ev, like)
}

// CacheEnabled reports whether the engine was built with a result cache.
func (e *Engine) CacheEnabled() bool { return e.cache != nil }

// CacheStats is a snapshot of the result cache's counters.
type CacheStats struct {
	// Enabled is false when the engine has no cache (CacheSize 0).
	Enabled bool
	// Capacity and Entries are the cache's configured size and current fill.
	Capacity, Entries int
	// Hits and Misses count lookups; Collapsed counts queries served by
	// another caller's in-flight propagation (singleflight waiters).
	Hits, Misses, Collapsed int64
}

// CacheStats returns the result cache's counters (zero value when the
// engine has no cache).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:   true,
		Capacity:  e.cache.Cap(),
		Entries:   e.cache.Len(),
		Hits:      e.cache.Hits(),
		Misses:    e.cache.Misses(),
		Collapsed: e.collapsed.Load(),
	}
}

// InvalidateCache drops every cached result and fences in-flight inserts:
// propagations started before the call can never re-populate the cache,
// so no query after InvalidateCache returns is served a pre-invalidation
// result. Results already handed out stay valid — they are immutable.
func (e *Engine) InvalidateCache() {
	if e.cache != nil {
		e.cache.Purge()
	}
}
