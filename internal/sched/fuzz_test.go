package sched

import (
	"math/rand"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// withLeafPairs grafts k two-variable leaf cliques onto clique 0 of t, each
// sharing one of its variables and adding a fresh one. The small leaves
// pull the mean table size down, so t's large cliques become worth
// splitting under the automatic plan, whose piece target is twice the
// mean table.
func withLeafPairs(t *jtree.Tree, k int) (*jtree.Tree, error) {
	n := t.N()
	vars := make([][]int, 0, n+k)
	card := make([][]int, 0, n+k)
	adj := make([][]int, n, n+k)
	fresh := 0
	for i := range t.Cliques {
		c := &t.Cliques[i]
		vars = append(vars, c.Vars)
		card = append(card, c.Card)
		if p := c.Parent; p >= 0 {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
		for _, v := range c.Vars {
			if v >= fresh {
				fresh = v + 1
			}
		}
	}
	c0 := &t.Cliques[0]
	for j := 0; j < k; j++ {
		s := j % len(c0.Vars)
		vars = append(vars, []int{c0.Vars[s], fresh + j})
		card = append(card, []int{c0.Card[s], 2})
		adj[0] = append(adj[0], len(adj))
		adj = append(adj, []int{0})
	}
	return jtree.NewFromAdjacency(vars, card, adj, t.Root)
}

// FuzzAutoPlanVsSerial runs random junction trees (jtree.Random, with small
// leaf cliques grafted on so large tables clear the automatic plan's piece
// target) plus random hard evidence through the collaborative and
// work-stealing schedulers under the automatic partition plan, and compares
// every clique with the serial pass: bit-identical when no task was split,
// within the partitioned-sum tolerance of compareStates otherwise.
func FuzzAutoPlanVsSerial(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint8(6), uint8(12), uint8(3), uint8(1))
	f.Add(int64(2), uint8(3), uint8(1), uint8(4), uint8(15), uint8(2), uint8(3))
	f.Add(int64(3), uint8(0), uint8(0), uint8(7), uint8(0), uint8(0), uint8(0))
	f.Add(int64(4), uint8(1), uint8(0), uint8(5), uint8(9), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, states, width, pairs, nev, workers uint8) {
		cfg := jtree.RandomConfig{N: 1 + int(n%4), States: 2 + int(states%2), Degree: 2, Seed: seed}
		if cfg.States == 2 {
			cfg.Width = 8 + int(width%8) // up to 32768 entries
		} else {
			cfg.Width = 5 + int(width%5) // up to 19683 entries
		}
		base, err := jtree.Random(cfg)
		if err != nil {
			t.Skip(err)
		}
		tr, err := withLeafPairs(base, int(pairs%16))
		if err != nil {
			t.Fatalf("grafting leaves: %v", err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("grafted tree: %v", err)
		}
		if err := tr.MaterializeRandom(seed); err != nil {
			t.Fatal(err)
		}
		g := taskgraph.Build(tr)
		g.PlanAuto()

		rng := rand.New(rand.NewSource(seed))
		vs, cards := tr.Variables()
		ev := potential.Evidence{}
		for i := 0; i < int(nev%4) && i < len(vs); i++ {
			v := vs[rng.Intn(len(vs))]
			ev[v] = rng.Intn(cards[v])
		}
		ref := referenceState(t, g, ev)
		p := 1 + int(workers%4)
		for _, stealing := range []bool{false, true} {
			st, err := g.NewState()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AbsorbEvidence(ev); err != nil {
				t.Fatal(err)
			}
			var m *Metrics
			if stealing {
				m, err = RunStealing(st, Options{Workers: p})
			} else {
				m, err = Run(st, Options{Workers: p})
			}
			if err != nil {
				t.Fatalf("stealing=%v P=%d: %v", stealing, p, err)
			}
			if m.Partition > 0 {
				compareStates(t, "auto plan", ref, st, tr.N())
				continue
			}
			for i := range ref.Clique {
				a, b := ref.Clique[i].Data, st.Clique[i].Data
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("stealing=%v P=%d: clique %d entry %d = %v, serial %v (nothing was split)", stealing, p, i, k, b[k], a[k])
					}
				}
			}
		}
	})
}
