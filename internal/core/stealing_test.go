package core

import (
	"sync"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/potential"
)

// TestStealingEngineSharesOnePool runs concurrent propagations on a
// work-stealing engine: they multiplex on the engine's persistent pool
// rather than on per-run workers, so its gauges account every task of
// every run.
func TestStealingEngineSharesOnePool(t *testing.T) {
	net, ids := bayesnet.Asia()
	tr, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tr, Options{Workers: 3, Scheduler: WorkStealing})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const callers, runs = 4, 5
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				res, err := e.Propagate(potential.Evidence{ids["XRay"]: (c + i) % 2})
				if err != nil {
					t.Error(err)
					return
				}
				res.Release()
			}
		}(c)
	}
	wg.Wait()
	pool := e.workerPool()
	if pool == nil {
		t.Fatal("stealing engine has no persistent pool")
	}
	s := pool.Gauges().Snapshot()
	if len(s.Workers) != 3 || s.ActiveRuns != 0 || s.GlobalDepth != 0 {
		t.Fatalf("gauges %d workers, %d active runs, depth %d", len(s.Workers), s.ActiveRuns, s.GlobalDepth)
	}
	var completed int64
	for _, w := range s.Workers {
		completed += w.Completed
	}
	if want := int64(callers * runs * e.Graph().N()); completed != want {
		t.Errorf("gauges completed %d tasks, want %d", completed, want)
	}
}
