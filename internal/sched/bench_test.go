package sched

import (
	"fmt"
	"runtime"
	"testing"

	"evprop/internal/bayesnet"
	"evprop/internal/taskgraph"
)

// BenchmarkPoolRun times one full propagation on a persistent pool under
// three partition settings, on two network shapes:
//
//   - serve-distinct, RandomNetwork(40,2,3,7): 34 cliques of 2–128 entries;
//   - paper-wide, RandomNetwork(60,2,5,3): 43 cliques up to 2^18 entries.
//
// "plan" is the automatic plan (threshold 0 after PlanAuto), "delta=N" the
// paper's rule at the old automatic δ (twice the mean clique table, rounded
// to a cache line), "off" no partitioning. Besides ns/op and allocs/op it
// reports the table entries the kernels sweep, and the pieces and executed
// items (tasks, pieces, combiners), per run: the ns/op difference between
// two settings over their items/op difference prices one dispatched item,
// and ns/op over entries/op with partitioning off prices one entry of
// kernel work; together they set taskgraph.MinPiece.
//
//	go test -run '^$' -bench BenchmarkPoolRun -benchmem ./internal/sched
func BenchmarkPoolRun(b *testing.B) {
	shapes := []struct {
		name                         string
		nodes, states, parents, seed int
	}{
		{"serve-distinct", 40, 2, 3, 7},
		{"paper-wide", 60, 2, 5, 3},
	}
	for _, sh := range shapes {
		tr, err := bayesnet.RandomNetwork(sh.nodes, sh.states, sh.parents, int64(sh.seed)).Compile()
		if err != nil {
			b.Fatal(err)
		}
		if r := tr.SelectRoot(); r != tr.Root {
			if tr, err = tr.Reroot(r); err != nil {
				b.Fatal(err)
			}
		}
		g := taskgraph.Build(tr)
		g.PlanAuto()
		total := 0
		for i := range tr.Cliques {
			total += tr.Cliques[i].TableSize()
		}
		oldAuto := (2*total/tr.N() + 7) / 8 * 8
		for _, v := range []struct {
			name string
			δ    int
		}{
			{"plan", 0},
			{fmt.Sprintf("delta=%d", oldAuto), oldAuto},
			{"off", -1},
		} {
			b.Run(sh.name+"/"+v.name, func(b *testing.B) {
				benchPoolRun(b, g, v.δ)
			})
		}
	}
}

func benchPoolRun(b *testing.B, g *taskgraph.Graph, δ int) {
	p, err := NewPool(runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	st, err := g.NewState()
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Threshold: δ}
	if _, err := p.Run(st, opts); err != nil { // size the buffers
		b.Fatal(err)
	}
	entries := 0
	for id := range g.Tasks {
		entries += st.PartitionSize(id)
	}
	pieces, items := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset(taskgraph.SumProduct)
		m, err := p.Run(st, opts)
		if err != nil {
			b.Fatal(err)
		}
		pieces += m.Pieces
		for _, wm := range m.Workers {
			items += wm.Tasks
		}
	}
	b.ReportMetric(float64(pieces)/float64(b.N), "pieces/op")
	b.ReportMetric(float64(items)/float64(b.N), "items/op")
	b.ReportMetric(float64(entries), "entries/op")
}
