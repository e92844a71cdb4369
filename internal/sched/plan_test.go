package sched

import (
	"testing"

	"evprop/internal/jtree"
	"evprop/internal/taskgraph"
)

// The δ-snapping the partition plan applies, under the names this package's
// snapping tests use.
var snapStep = taskgraph.SnapStep

const cacheLineEntries = taskgraph.CacheLineEntries

// TestLocalListSteadyStateNoAllocs pins the ready-list fix: a list that
// keeps being drained and refilled reuses its storage instead of growing a
// fresh slice every time its head is consumed.
func TestLocalListSteadyStateNoAllocs(t *testing.T) {
	gg := NewGauges(1)
	p := &Pool{lists: []*localList{newLocalList(gg.worker(0))}, gauges: gg}
	cycle := func() {
		for i := 0; i < 5; i++ {
			p.push(0, item{task: i, weight: 1})
		}
		for i := 0; i < 5; i++ {
			it, ok, _ := p.fetch(0)
			if !ok || it.task != i {
				t.Fatalf("fetch %d = (%d, %v), want FIFO order", i, it.task, ok)
			}
		}
	}
	cycle() // first fill sizes the buffer
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("steady-state push/fetch: %v allocs per cycle, want 0", allocs)
	}
}

// TestRingOrder checks FIFO pops from the front, LIFO steals from the back,
// and growth across a wrapped head.
func TestRingOrder(t *testing.T) {
	var q ring
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.pushBack(item{task: next})
			next++
		}
		for i := 0; i < 5; i++ {
			if got := q.popFront().task; got != want {
				t.Fatalf("popFront = %d, want %d", got, want)
			}
			want++
		}
	}
	if got := q.popBack().task; got != next-1 {
		t.Fatalf("popBack = %d, want %d", got, next-1)
	}
	for q.len() > 0 {
		if got := q.popFront().task; got != want {
			t.Fatalf("drain popFront = %d, want %d", got, want)
		}
		want++
	}
	if want != next-1 {
		t.Fatalf("drained up to %d, want %d", want, next-1)
	}
	for _, it := range q.buf {
		if it != (item{}) {
			t.Fatal("popped slot still holds its item")
		}
	}
}

// largeRootTree is a junction tree with one clique worth splitting: a root
// over 14 binary variables (16384 entries) whose children are small pairs
// sharing one of its variables.
func largeRootTree(t *testing.T, children int) *jtree.Tree {
	t.Helper()
	root := make([]int, 14)
	for i := range root {
		root[i] = i
	}
	card := func(n int) []int {
		c := make([]int, n)
		for i := range c {
			c[i] = 2
		}
		return c
	}
	vars, cards, adj := [][]int{root}, [][]int{card(14)}, [][]int{nil}
	for k := 0; k < children; k++ {
		vars = append(vars, []int{k % 14, 100 + k})
		cards = append(cards, card(2))
		adj[0] = append(adj[0], len(adj))
		adj = append(adj, []int{0})
	}
	tr, err := jtree.NewFromAdjacency(vars, cards, adj, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestAutoPlanRuns drives both schedulers with threshold 0 on a tree whose
// root clique is large enough to split: without an attached plan nothing
// is partitioned; with PlanAuto the root's tasks are, and the result still
// matches the serial pass.
func TestAutoPlanRuns(t *testing.T) {
	tr := largeRootTree(t, 7)
	if err := tr.MaterializeRandom(7); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Build(tr)
	ref := referenceState(t, g, nil)
	run := func(label string, stealing bool) *Metrics {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		var m *Metrics
		if stealing {
			m, err = RunStealing(st, Options{Workers: 3})
		} else {
			m, err = Run(st, Options{Workers: 3})
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		compareStates(t, label, ref, st, tr.N())
		return m
	}
	for _, stealing := range []bool{false, true} {
		if m := run("no plan", stealing); m.Partition != 0 {
			t.Errorf("stealing=%v: %d tasks partitioned with no plan attached", stealing, m.Partition)
		}
	}
	p := g.PlanAuto()
	if p.Splittable == 0 {
		t.Fatal("automatic plan splits nothing on the large root")
	}
	for _, stealing := range []bool{false, true} {
		m := run("auto plan", stealing)
		if m.Partition == 0 || m.Pieces < 2*m.Partition {
			t.Errorf("stealing=%v: %d partitioned, %d pieces under the automatic plan", stealing, m.Partition, m.Pieces)
		}
	}
}
