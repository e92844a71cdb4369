package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"evprop/internal/jtree"
	"evprop/internal/potential"
	"evprop/internal/taskgraph"
)

// blockingExecutor is a three-task graph with no edges. Sources go to the
// lists round-robin, so with two workers tasks 0 and 2 share worker 0's
// list, task 0 at its head. Task 0 blocks until task 2 has run: only a
// worker that steals task 2 from behind the blocked one can finish the
// graph before the timeout.
type blockingExecutor struct {
	g       *taskgraph.Graph
	ran2    chan struct{}
	timeout time.Duration
}

var errNotStolen = errors.New("task 2 did not run while task 0 blocked")

func newBlockingExecutor(timeout time.Duration) *blockingExecutor {
	g := &taskgraph.Graph{Tasks: make([]taskgraph.Task, 3)}
	for i := range g.Tasks {
		g.Tasks[i] = taskgraph.Task{ID: i, Kind: taskgraph.Multiply, Weight: 1}
	}
	return &blockingExecutor{g: g, ran2: make(chan struct{}), timeout: timeout}
}

func (b *blockingExecutor) Graph() *taskgraph.Graph { return b.g }

func (b *blockingExecutor) Execute(id int) error {
	switch id {
	case 0:
		select {
		case <-b.ran2:
		case <-time.After(b.timeout):
			return errNotStolen
		}
	case 2:
		close(b.ran2)
	}
	return nil
}

func (b *blockingExecutor) ExecutePiece(int, int, int, *potential.Potential) error {
	return errors.New("unexpected piece")
}
func (b *blockingExecutor) PartitionSize(int) int                     { return 1 }
func (b *blockingExecutor) NewPartialBuffer(int) *potential.Potential { return nil }
func (b *blockingExecutor) Combine(int, []*potential.Potential) error {
	return errors.New("unexpected combine")
}
func (b *blockingExecutor) RunSerial() error { return errors.New("unexpected serial run") }

// TestStealUnblocksSharedList is the deterministic steal test: in steal
// mode the idle worker takes task 2 from the busy worker's list, while the
// collaborative pool, whose workers only fetch their own lists, leaves it
// queued behind the blocked task 0 until the timeout.
func TestStealUnblocksSharedList(t *testing.T) {
	sp, err := NewStealingPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	m, err := sp.Run(newBlockingExecutor(10*time.Second), Options{})
	if err != nil {
		t.Fatalf("steal mode: %v", err)
	}
	if m.Tasks != 3 || m.Steals < 1 {
		t.Errorf("steal mode: %d tasks, %d steals; want 3 tasks and a steal", m.Tasks, m.Steals)
	}
	var gaugeSteals int64
	for _, w := range sp.Gauges().Snapshot().Workers {
		gaugeSteals += w.Steals
	}
	if gaugeSteals != int64(m.Steals) {
		t.Errorf("gauges count %d steals, metrics %d", gaugeSteals, m.Steals)
	}

	cp, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if _, err := cp.Run(newBlockingExecutor(100*time.Millisecond), Options{}); !errors.Is(err, errNotStolen) {
		t.Fatalf("collaborative mode: %v, want the blocked task's timeout", err)
	}
}

func stealTestGraph(t *testing.T) (*jtree.Tree, *taskgraph.Graph) {
	t.Helper()
	tr, err := jtree.Random(jtree.RandomConfig{N: 28, Width: 5, States: 2, Degree: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MaterializeRandom(12); err != nil {
		t.Fatal(err)
	}
	return tr, taskgraph.Build(tr)
}

// requireBitExact compares every clique table of got with the serial
// reference entry by entry; runs that split nothing must match exactly.
func requireBitExact(t *testing.T, label string, ref, got *taskgraph.State) {
	t.Helper()
	for i := range ref.Clique {
		a, b := ref.Clique[i].Data, got.Clique[i].Data
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("%s: clique %d entry %d = %v, serial %v", label, i, k, b[k], a[k])
			}
		}
	}
}

// TestStealingPoolConcurrentRuns multiplexes concurrent runs on one
// steal-mode pool: every unpartitioned run is bit-exact with the serial
// pass, and partitioned ones agree within compareStates' tolerance.
func TestStealingPoolConcurrentRuns(t *testing.T) {
	tr, g := stealTestGraph(t)
	ref := referenceState(t, g, nil)
	p, err := NewStealingPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				st, err := g.NewState()
				if err != nil {
					t.Error(err)
					return
				}
				thr := -1
				if c%2 == 1 {
					thr = 16
				}
				m, err := p.Run(st, Options{Threshold: thr})
				if err != nil {
					t.Error(err)
					return
				}
				label := fmt.Sprintf("caller %d run %d", c, i)
				if m.Partition > 0 {
					compareStates(t, label, ref, st, tr.N())
				} else {
					requireBitExact(t, label, ref, st)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestStealingPoolCancelThenClean cancels steal-mode runs mid-flight and
// then runs the graph cleanly on the same pool: the clean run must be
// bit-exact with the serial pass, so no straggler of a dead run leaks into
// it.
func TestStealingPoolCancelThenClean(t *testing.T) {
	_, g := stealTestGraph(t)
	ref := referenceState(t, g, nil)
	p, err := NewStealingPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 5; i++ {
		st, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		cc := &countdownCtx{Context: context.Background()}
		cc.left.Store(int64(2 + 3*i))
		if _, err := p.Run(st, Options{Threshold: -1, Trace: true, Ctx: cc}); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled run %d: %v", i, err)
		}
		clean, err := g.NewState()
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Run(clean, Options{Threshold: -1, Trace: true})
		if err != nil {
			t.Fatalf("clean run %d: %v", i, err)
		}
		if m.Tasks != g.N() || len(m.Trace.Events) != g.N() {
			t.Errorf("clean run %d: %d tasks, %d events, want %d", i, m.Tasks, len(m.Trace.Events), g.N())
		}
		requireBitExact(t, fmt.Sprintf("clean run %d", i), ref, clean)
	}
}
