package taskgraph

import (
	"sync"
	"testing"

	"evprop/internal/jtree"
)

// starTree is a tree in the paper's Fig. 8 regime: one large root clique
// over 14 binary variables (16384 entries) with seven small children that
// share one variable with it, plus one wide child sharing 13 of its 14
// variables, so its separator is half of both cliques.
func starTree(t *testing.T) (tr *jtree.Tree, wide int) {
	t.Helper()
	two := func(n int) []int {
		c := make([]int, n)
		for i := range c {
			c[i] = 2
		}
		return c
	}
	var vars, card [][]int
	big := make([]int, 14)
	for i := range big {
		big[i] = i
	}
	vars, card = append(vars, big), append(card, two(14))
	adj := [][]int{nil}
	for k := 0; k < 7; k++ {
		vars, card = append(vars, []int{13, 100 + k}), append(card, two(2))
		adj[0] = append(adj[0], len(adj))
		adj = append(adj, []int{0})
	}
	wide = len(vars)
	vars, card = append(vars, append(append([]int(nil), big[1:]...), 200)), append(card, two(14))
	adj[0] = append(adj[0], wide)
	adj = append(adj, []int{0})
	tr, err := jtree.NewFromAdjacency(vars, card, adj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr, wide
}

// checkPieces asserts every split the plan allows carries at least MinPiece
// entries per piece, including the last one.
func checkPieces(t *testing.T, g *Graph, p *Plan) {
	t.Helper()
	for id := range g.Tasks {
		for _, size := range []int{1, MinPiece / 2, MinPiece, MinPiece + 1, 2*MinPiece - 1, 2 * MinPiece, g.plannedSize(&g.Tasks[id])} {
			n, step := p.Split(id, size)
			if n == 0 {
				continue
			}
			if size <= MinPiece {
				t.Fatalf("task %s: size %d ≤ MinPiece split into %d", g.Tasks[id].String(), size, n)
			}
			if n < 2 || step < MinPiece || size-(n-1)*step < MinPiece {
				t.Fatalf("task %s: size %d → %d pieces of %d: a piece below MinPiece", g.Tasks[id].String(), size, n, step)
			}
		}
	}
}

func TestAutoPlanNeverSplitsSmallTables(t *testing.T) {
	for _, w := range []int{4, 8, 12} {
		tr, err := jtree.Random(jtree.RandomConfig{N: 20, Width: w, States: 2, Degree: 3, Seed: int64(w)})
		if err != nil {
			t.Fatal(err)
		}
		g := Build(tr)
		p := g.PlanAuto()
		if p.Splittable != 0 {
			t.Errorf("width %d (%d entries): %d tasks splittable", w, 1<<w, p.Splittable)
		}
		for id := range g.Tasks {
			if s := p.Step(id); s != 0 {
				t.Errorf("width %d: task %s planned step %d", w, g.Tasks[id].String(), s)
			}
		}
		checkPieces(t, g, p)
	}
	tr, _ := starTree(t)
	g := Build(tr)
	checkPieces(t, g, g.PlanAuto())
}

func TestAutoPlanVetoesHalfSeparatorMarginalize(t *testing.T) {
	tr, wide := starTree(t)
	if s, c := tr.Cliques[wide].SepSize(), tr.Cliques[wide].TableSize(); 2*s != c {
		t.Fatalf("wide child: |S| = %d, |C| = %d, want |S| = |C|/2", s, c)
	}
	g := Build(tr)
	p := g.PlanAuto()
	vetoed, split := 0, 0
	for id := range g.Tasks {
		task := &g.Tasks[id]
		if task.Edge != wide {
			continue
		}
		switch task.Kind {
		case Marginalize:
			if p.Step(id) != 0 {
				t.Errorf("%s: |S| = |C|/2 Marginalize planned step %d, want vetoed", task.String(), p.Step(id))
			}
			vetoed++
		case Extend, Multiply:
			if p.Step(id) != 0 {
				split++
			}
		}
	}
	if vetoed != 2 {
		t.Errorf("checked %d Marginalize tasks on the wide edge, want 2", vetoed)
	}
	if split == 0 {
		t.Error("no Extend/Multiply on the wide edge splits: the veto must be Marginalize-only")
	}
}

func TestAutoPlanSplitsLargeCliqueSmallSeparator(t *testing.T) {
	tr, wide := starTree(t)
	g := Build(tr)
	p := g.PlanAuto()
	found := false
	for id := range g.Tasks {
		task := &g.Tasks[id]
		if task.Kind != Marginalize || task.Source != tr.Root || task.Edge == wide {
			continue
		}
		step := p.Step(id)
		if step == 0 {
			t.Fatalf("%s: Marginalize of the 16384-entry clique onto a 2-entry separator not split", task.String())
		}
		grain := task.Grain
		if grain < 1 {
			grain = 1
		}
		if step%grain != 0 || step < MinPiece {
			t.Errorf("%s: step %d, want a multiple of grain %d and ≥ %d", task.String(), step, grain, MinPiece)
		}
		if n, s := p.Split(id, g.plannedSize(task)); n < 2 || s != step {
			t.Errorf("%s: Split = (%d, %d), want ≥ 2 pieces of %d", task.String(), n, s, step)
		}
		found = true
	}
	if !found {
		t.Fatal("no distribute Marginalize out of the root")
	}
	if p.Splittable == 0 {
		t.Error("Splittable = 0")
	}
}

func TestExplicitPlanMatchesSnapStep(t *testing.T) {
	tr, err := jtree.Random(jtree.RandomConfig{N: 12, Width: 7, States: 3, Degree: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := Build(tr)
	for _, δ := range []int{1, 7, 16, 64, 250, 1000} {
		p := g.PartitionPlan(δ)
		if p.Auto() || p.Delta != δ {
			t.Fatalf("δ=%d: plan Delta %d", δ, p.Delta)
		}
		splittable := 0
		for id := range g.Tasks {
			want := SnapStep(δ, g.Tasks[id].Grain)
			if got := p.Step(id); got != want {
				t.Errorf("δ=%d task %d: step %d, want SnapStep = %d", δ, id, got, want)
			}
			for _, size := range []int{1, δ, δ + 1, 3*δ + 5, g.plannedSize(&g.Tasks[id])} {
				n, step := p.Split(id, size)
				wantN := 0
				if size > δ {
					wantN = (size + want - 1) / want
				}
				if n != wantN || (n > 0 && step != want) {
					t.Errorf("δ=%d task %d size %d: Split = (%d, %d), want (%d, %d)", δ, id, size, n, step, wantN, want)
				}
			}
			if g.plannedSize(&g.Tasks[id]) > δ {
				splittable++
			}
		}
		if p.Splittable != splittable {
			t.Errorf("δ=%d: Splittable %d, want %d", δ, p.Splittable, splittable)
		}
		if g.PartitionPlan(δ) != p {
			t.Errorf("δ=%d: plan rebuilt instead of cached", δ)
		}
	}
}

func TestPartitionPlanModes(t *testing.T) {
	tr, _ := starTree(t)
	g := Build(tr)
	if g.PartitionPlan(0) != nil {
		t.Error("automatic plan present before PlanAuto")
	}
	p := g.PlanAuto()
	if g.PartitionPlan(0) != p || !p.Auto() {
		t.Error("PartitionPlan(0) does not return the attached automatic plan")
	}
	if g.PartitionPlan(-1) != nil {
		t.Error("negative δ returned a plan")
	}
	var none *Plan
	if n, _ := none.Split(0, 1<<20); n != 0 {
		t.Error("nil plan split a task")
	}
}

// TestPartitionPlanConcurrent asks one graph for explicit plans of
// different δ from several goroutines, as concurrent scheduler runs with
// different thresholds do: each caller must get the plan of its own δ.
func TestPartitionPlanConcurrent(t *testing.T) {
	tr, _ := starTree(t)
	g := Build(tr)
	g.PlanAuto()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(δ int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if p := g.PartitionPlan(δ); p.Delta != δ {
					t.Errorf("PartitionPlan(%d) returned the plan of δ = %d", δ, p.Delta)
					return
				}
				if p := g.PartitionPlan(0); !p.Auto() {
					t.Error("PartitionPlan(0) is not the automatic plan")
					return
				}
			}
		}(8 << w)
	}
	wg.Wait()
}
