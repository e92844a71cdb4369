package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// scratchEngines compiles RandomNetwork(40,2,3,7) twice: once with the
// result cache (every miss pins its result and hands the message scratch
// back) and once without (every result keeps its whole state).
func scratchEngines(t *testing.T) (cached, plain *Engine) {
	t.Helper()
	tr, err := bayesnet.RandomNetwork(40, 2, 3, 7).Compile()
	if err != nil {
		t.Fatal(err)
	}
	cached, err = NewEngine(tr, Options{Workers: 2, CacheSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cached.Close)
	plain, err = NewEngine(tr, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	return cached, plain
}

// distinctEvidence returns the i-th of a family of distinct three-variable
// evidence maps over the network's first 30 variables.
func distinctEvidence(i int) potential.Evidence {
	return potential.Evidence{i % 10: i / 10 % 2, 10 + i/2%10: i / 20 % 2, 20 + i/5%10: i / 40 % 2}
}

func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d entries", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d = %v, want %v", what, i, a[i], b[i])
		}
	}
}

// TestPinnedResultReleasesScratchBitExact compares pinned cached results —
// whose states gave their message scratch back on pinning — against an
// uncached engine on the same evidence: every reader surface must be
// bit-identical.
func TestPinnedResultReleasesScratchBitExact(t *testing.T) {
	cached, plain := scratchEngines(t)
	ctx := context.Background()
	tree := cached.Tree()
	for i := 0; i < 6; i++ {
		ev := distinctEvidence(i)
		got, hit, err := cached.PropagateCachedContext(ctx, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hit || !got.Pinned() {
			t.Fatalf("evidence %v: hit=%v pinned=%v, want a pinned miss", ev, hit, got.Pinned())
		}
		if got.State().HasScratch() {
			t.Fatalf("evidence %v: pinned result still holds message scratch", ev)
		}
		want, err := plain.Propagate(ev)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := got.ProbabilityOfEvidence(), want.ProbabilityOfEvidence(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("evidence %v: P(e) = %v, want %v", ev, a, b)
		}
		for v := 0; v < 40; v++ {
			a, err := got.Marginal(v)
			if err != nil {
				t.Fatal(err)
			}
			b, err := want.Marginal(v)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "marginal", a.Data, b.Data)
		}
		vars := tree.Cliques[tree.Root].Vars
		a, err := got.JointMarginal(vars)
		if err != nil {
			t.Fatal(err)
		}
		b, err := want.JointMarginal(vars)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "joint marginal", a.Data, b.Data)
		if ea, eb := got.CheckCalibration(1e-9), want.CheckCalibration(1e-9); ea != nil || eb != nil {
			t.Fatalf("evidence %v: calibration %v / %v", ev, ea, eb)
		}

		gm, _, err := cached.PropagateMaxCachedContext(ctx, ev)
		if err != nil {
			t.Fatal(err)
		}
		if gm.State().HasScratch() {
			t.Fatalf("evidence %v: pinned max-product result still holds message scratch", ev)
		}
		wm, err := plain.PropagateMax(ev)
		if err != nil {
			t.Fatal(err)
		}
		xa, pa, err := gm.MostProbableExplanation()
		if err != nil {
			t.Fatal(err)
		}
		xb, pb, err := wm.MostProbableExplanation()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pa) != math.Float64bits(pb) || len(xa) != len(xb) {
			t.Fatalf("evidence %v: MPE prob %v (%d vars), want %v (%d vars)", ev, pa, len(xa), pb, len(xb))
		}
		for v, s := range xb {
			if xa[v] != s {
				t.Fatalf("evidence %v: MPE assigns variable %d state %d, want %d", ev, v, xa[v], s)
			}
		}
	}
}

// TestReleasedStateRerunsBitExact resets a state whose scratch was handed
// back on pinning and runs it again: it re-acquires scratch and reproduces
// the pinned answer bit for bit.
func TestReleasedStateRerunsBitExact(t *testing.T) {
	cached, _ := scratchEngines(t)
	ev := distinctEvidence(3)
	res, _, err := cached.PropagateCachedContext(context.Background(), ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]float64
	for v := 0; v < 40; v++ {
		m, err := res.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, append([]float64(nil), m.Data...))
	}
	// Drop the engine's reference so rerunning the state corrupts no
	// cached reader, then rerun it in place.
	cached.InvalidateCache()
	st := res.State()
	st.Reset(taskgraph.SumProduct)
	if err := st.AbsorbEvidence(ev); err != nil {
		t.Fatal(err)
	}
	if err := st.RunSerial(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 40; v++ {
		m, err := st.Marginal(v)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "rerun marginal", m.Data, want[v])
	}
}

// TestPinnedReadersWithConcurrentMisses reads one pinned result from many
// goroutines while others propagate distinct evidence, reusing the scratch
// pinned results handed back. Under -race this checks that scratch reuse
// never touches a pinned result's tables.
func TestPinnedReadersWithConcurrentMisses(t *testing.T) {
	cached, plain := scratchEngines(t)
	ctx := context.Background()
	ev := distinctEvidence(0)
	pinned, _, err := cached.PropagateCachedContext(ctx, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.Propagate(ev)
	if err != nil {
		t.Fatal(err)
	}
	tree := cached.Tree()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := cached.PropagateCachedContext(ctx, distinctEvidence(1+g*20+i), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := i % 40
				a, err := pinned.Marginal(v)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := ref.Marginal(v)
				if err != nil {
					t.Error(err)
					return
				}
				for k := range a.Data {
					if math.Float64bits(a.Data[k]) != math.Float64bits(b.Data[k]) {
						t.Errorf("variable %d state %d: %v, want %v", v, k, a.Data[k], b.Data[k])
						return
					}
				}
				if _, err := pinned.JointMarginal(tree.Cliques[i%tree.N()].Vars); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := pinned.CheckCalibration(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestCachedMissAllocBudget pins the allocations of one cache-missing
// request — a propagation plus three posteriors — on
// RandomNetwork(40,2,3,7). Before graph-built kernel plans, slab tables and
// pooled scratch the same request made about 1500 allocations; it now makes
// 58, and the budget holds that with headroom.
func TestCachedMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cached, _ := scratchEngines(t)
	ctx := context.Background()
	i := 0
	request := func() {
		ev := distinctEvidence(i)
		i++
		res, hit, err := cached.PropagateCachedContext(ctx, ev, nil)
		if err != nil || hit {
			t.Fatalf("request %d: hit=%v err=%v, want a miss", i, hit, err)
		}
		for _, v := range []int{31, 35, 39} {
			if _, err := res.Marginal(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < 5; k++ {
		request() // warm the state and scratch pools
	}
	const budget = 100
	allocs := testing.AllocsPerRun(50, request)
	t.Logf("%v allocations per cache-missing request", allocs)
	if allocs > budget {
		t.Errorf("cache-missing request made %v allocations, budget %d", allocs, budget)
	}
}
