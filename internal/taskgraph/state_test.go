package taskgraph

import (
	"math"
	"sync"
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/potential"
)

func materializedTree(t *testing.T, seed int64) *jtree.Tree {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 30, Width: 5, States: 2, Degree: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(seed + 1); err != nil {
		t.Fatal(err)
	}
	return tr
}

// runSerialPass executes every task in order, partitioning each task into
// two pieces through the same NewPartialBuffer/ExecutePiece/Combine calls a
// scheduler makes, so both the whole and the piece paths are exercised.
func runSerialPass(t testing.TB, st *State, order []int, split bool) {
	var bufs [2]*potential.Potential
	for _, id := range order {
		if !split {
			if err := st.Execute(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		size := st.PartitionSize(id)
		mid := size / 2
		bufs[0], bufs[1] = st.NewPartialBuffer(id), st.NewPartialBuffer(id)
		if err := st.ExecutePiece(id, 0, mid, bufs[0]); err != nil {
			t.Fatal(err)
		}
		if err := st.ExecutePiece(id, mid, size, bufs[1]); err != nil {
			t.Fatal(err)
		}
		parts := bufs[:]
		if bufs[0] == nil {
			parts = nil
		}
		if err := st.Combine(id, parts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExecuteAllocFree pins the steady state of a pooled State: once its
// scratch holds recycled piece buffers, executing every task kind — whole
// or as pieces, sum- or max-product — allocates nothing.
func TestExecuteAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := materializedTree(t, 3)
	g := Build(tr)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{SumProduct, MaxProduct} {
		st, err := g.NewStateMode(mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range []bool{false, true} {
			runSerialPass(t, st, order, split) // warm the partial-buffer free lists
			for k := Kind(0); k < NumKinds; k++ {
				var ids []int
				for _, id := range order {
					if g.Tasks[id].Kind == k {
						ids = append(ids, id)
					}
				}
				allocs := testing.AllocsPerRun(5, func() {
					st.Reset(mode)
					runSerialPass(t, st, ids, split)
				})
				if allocs != 0 {
					t.Errorf("%v split=%v: %v tasks allocate %v times per pass, want 0", mode, split, k, allocs)
				}
			}
		}
	}
}

// TestSourcesPrecomputed checks that a built graph hands out its source
// list without allocating, and that it matches a fresh scan.
func TestSourcesPrecomputed(t *testing.T) {
	g := Build(materializedTree(t, 4))
	var want []int
	for i := range g.Tasks {
		if g.Tasks[i].NDeps == 0 {
			want = append(want, i)
		}
	}
	got := g.Sources()
	if len(got) != len(want) {
		t.Fatalf("Sources = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sources = %v, want %v", got, want)
		}
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(10, func() { _ = g.Sources() }); a != 0 {
			t.Errorf("Sources allocates %v times, want 0", a)
		}
	}
}

// TestStampedPlans checks that every non-Divide task carries the run plan
// of its kernel's domain pair — on full, collect-only and pruned graphs —
// and that it pairs the tables the task's kernel reads and writes.
func TestStampedPlans(t *testing.T) {
	tr := materializedTree(t, 5)
	for name, g := range map[string]*Graph{"full": Build(tr), "collect": BuildCollectOnly(tr)} {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Tasks {
			task := &g.Tasks[i]
			if task.Kind == Divide {
				if task.Align != nil {
					t.Errorf("%s %s: Divide carries a plan", name, task)
				}
				continue
			}
			if task.Align == nil {
				t.Fatalf("%s %s: no plan", name, task)
			}
			// The plan must accept the task's own tables, whole range.
			sup, sep := st.Clique[task.Target], st.Sep[task.Edge]
			var err error
			switch task.Kind {
			case Marginalize:
				err = st.Clique[task.Source].MarginalAligned(task.Align, sep.CloneZero(), 0, 0)
			case Extend:
				err = sep.ExtendAligned(task.Align, sup.CloneZero(), 0, 0)
			case Multiply:
				err = sup.Clone().MulAligned(task.Align, sup, 0, 0)
			}
			if err != nil {
				t.Errorf("%s %s: %v", name, task, err)
			}
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// A pruned graph assembled by hand shares the full graph's plans.
	full := Build(tr)
	p := full.NewPruned()
	c := 0
	for tr.Cliques[c].Parent < 0 {
		c++
	}
	p.Tasks = append(p.Tasks, Task{ID: 0, Kind: Marginalize, Dir: Collect, Edge: c, Source: c, Target: tr.Cliques[c].Parent, Weight: 1})
	p.Seal()
	marg, _, _ := full.MessagePlans(c, Collect)
	if p.Tasks[0].Align != marg || marg == nil {
		t.Errorf("pruned graph plan %p, full graph plan %p", p.Tasks[0].Align, marg)
	}
	if got := p.Sources(); len(got) != 1 || got[0] != 0 {
		t.Errorf("pruned Sources = %v", got)
	}
}

// TestReleasedScratchRerun checks the tables/scratch split: releasing a
// finished state's scratch leaves its tables intact, and a released state
// that is Reset and run again — or run again without Reset's re-acquire —
// gives bit-identical tables.
func TestReleasedScratchRerun(t *testing.T) {
	tr := materializedTree(t, 6)
	g := Build(tr)
	ev := potential.Evidence{0: 1, 3: 0}
	run := func(st *State) {
		t.Helper()
		if err := st.AbsorbEvidence(ev); err != nil {
			t.Fatal(err)
		}
		if err := st.RunSerial(); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	run(ref)
	want := snapshotTables(ref)

	st, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	run(st)
	st.ReleaseScratch()
	if st.HasScratch() {
		t.Fatal("scratch still held after ReleaseScratch")
	}
	assertTables(t, "released", st, want)

	// Another state takes the released scratch and dirties it.
	other, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AbsorbEvidence(potential.Evidence{1: 0}); err != nil {
		t.Fatal(err)
	}
	if err := other.RunSerial(); err != nil {
		t.Fatal(err)
	}
	assertTables(t, "released, after reuse", st, want)

	st.Reset(SumProduct)
	if !st.HasScratch() {
		t.Fatal("Reset did not re-acquire scratch")
	}
	run(st)
	assertTables(t, "reset and rerun", st, want)

	st.ReleaseScratch()
	st.Reset(SumProduct)
	st.ReleaseScratch() // a run without scratch must acquire it, not panic
	run(st)
	assertTables(t, "rerun without scratch", st, want)
}

// TestScratchPoolConcurrent drives many states of one graph concurrently
// while they release and re-acquire pooled scratch; -race checks that no
// two live states ever share scratch.
func TestScratchPoolConcurrent(t *testing.T) {
	tr := materializedTree(t, 7)
	g := Build(tr)
	ref, err := g.NewState()
	if err != nil {
		t.Fatal(err)
	}
	ev := potential.Evidence{2: 1}
	if err := ref.AbsorbEvidence(ev); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunSerial(); err != nil {
		t.Fatal(err)
	}
	want := snapshotTables(ref)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				st, err := g.NewState()
				if err != nil {
					t.Error(err)
					return
				}
				if err := st.AbsorbEvidence(ev); err != nil {
					t.Error(err)
					return
				}
				if err := st.RunSerial(); err != nil {
					t.Error(err)
					return
				}
				st.ReleaseScratch()
				for ci, tab := range st.Clique {
					for k, v := range tab.Data {
						if math.Float64bits(v) != math.Float64bits(want[ci][k]) {
							t.Errorf("clique %d entry %d: %v, want %v", ci, k, v, want[ci][k])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

func snapshotTables(st *State) [][]float64 {
	out := make([][]float64, 0, 2*len(st.Clique))
	for _, p := range st.Clique {
		out = append(out, append([]float64(nil), p.Data...))
	}
	for _, p := range st.Sep {
		if p == nil {
			out = append(out, nil)
			continue
		}
		out = append(out, append([]float64(nil), p.Data...))
	}
	return out
}

func assertTables(t *testing.T, what string, st *State, want [][]float64) {
	t.Helper()
	got := snapshotTables(st)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: table %d has %d entries, want %d", what, i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				t.Fatalf("%s: table %d entry %d = %v, want %v", what, i, k, got[i][k], want[i][k])
			}
		}
	}
}
