package sched

import (
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

// TestPoolRunAllocsIndependentOfGraph pins Pool.Run's per-run allocations
// to its fixed bookkeeping (run record, dependency counters, metrics, done
// channel, result): a warmed pool and state propagate a star with many
// initially ready tasks — each needing a Sources entry — and a chain with
// one for the same handful of allocations, none of them per task.
func TestPoolRunAllocsIndependentOfGraph(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	star, err := jtree.Star(24, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := jtree.Chain(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var counts []float64
	for _, tr := range []*jtree.Tree{star, chain} {
		if err := tr.MaterializeRandom(3); err != nil {
			t.Fatal(err)
		}
		g := taskgraph.Build(tr)
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Threshold: -1}
		if _, err := p.Run(st, opts); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(20, func() {
			st.Reset(taskgraph.SumProduct)
			if _, err := p.Run(st, opts); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("allocs per run: star %v, chain %v", counts[0], counts[1])
	const budget = 6
	if counts[0] != counts[1] || counts[0] > budget {
		t.Errorf("Pool.Run allocates %v times on a %d-source star and %v on a chain; want equal and ≤ %d",
			counts[0], len(taskgraph.Build(star).Sources()), counts[1], budget)
	}
}
