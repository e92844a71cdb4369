// Package taskgraph constructs the task dependency graph of Section 5 of
// the paper: evidence propagation in a junction tree is decomposed into a
// DAG whose nodes are node-level primitives (marginalization, division,
// extension, multiplication) and whose edges are precedence constraints.
//
// The graph is built in two steps, mirroring the paper exactly. First the
// *clique updating graph*: the junction tree is updated twice, evidence
// flowing from the leaves to the root (collection) and back from the root
// to the leaves (distribution). Second, each clique update is expanded into
// its *local task dependency graph*: a message over edge (parent P, child C)
// with separator S runs
//
//	ψ*S  = marginalize(ψsource onto S)   (Marginalize)
//	ρ    = ψ*S / ψS ;  ψS ← ψ*S          (Divide)
//	τ    = extend(ρ onto vars(target))    (Extend)
//	ψtgt ← ψtgt · τ                       (Multiply)
//
// A Graph is pure structure plus weights: it can be built from a skeleton
// tree (no potentials) and fed to the simulated-multicore machine, or
// paired with a State (allocated working tables) and executed for real by
// the schedulers in internal/sched and internal/baseline.
package taskgraph

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"evprop/internal/jtree"
	"evprop/internal/potential"
)

// Kind identifies the node-level primitive a task performs.
type Kind int

const (
	Marginalize Kind = iota
	Divide
	Extend
	Multiply

	// NumKinds is the number of primitive kinds, for arrays indexed by Kind
	// (per-kind time breakdowns in sched.WorkerMetrics and internal/obs).
	NumKinds = 4
)

func (k Kind) String() string {
	switch k {
	case Marginalize:
		return "marginalize"
	case Divide:
		return "divide"
	case Extend:
		return "extend"
	case Multiply:
		return "multiply"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Direction distinguishes the two passes of evidence propagation.
type Direction int

const (
	// Collect propagates evidence from the leaves toward the root.
	Collect Direction = iota
	// Distribute propagates evidence from the root back to the leaves.
	Distribute
)

func (d Direction) String() string {
	if d == Collect {
		return "collect"
	}
	return "distribute"
}

// Task is one node of the dependency graph.
type Task struct {
	ID     int
	Kind   Kind
	Dir    Direction
	Edge   int // child-clique id identifying the tree edge (child, parent)
	Source int // clique read by Marginalize / holding the message origin
	Target int // clique written by Multiply / holding the message target
	Weight float64
	// Grain is the preferred split alignment (in table entries) for the
	// partition plan: the constant-run length of the task's
	// kernel (potential.PartitionGrain), so split points land on run
	// boundaries and no two pieces reduce into the same destination cell.
	// 1 for purely contiguous kernels (Divide, Multiply, and Extend/
	// Marginalize whose trailing variables are shared), where any split
	// point costs the same. 0 on hand-built graphs means "unknown" and is
	// treated as 1.
	Grain int
	Succs []int
	NDeps int // number of predecessors
}

// Graph is the full task dependency graph for one junction tree.
type Graph struct {
	Tree  *jtree.Tree
	Tasks []Task

	// auto is the automatic partition plan (PlanAuto), nil when none is
	// attached; explicit caches the plan of the last explicit δ asked for.
	auto     *Plan
	explicit atomic.Pointer[Plan]
}

// taskIdx addresses the 4 collect + 4 distribute tasks of one edge.
type taskIdx struct{ cm, cd, ce, cu, dm, dd, de, du int }

// Build constructs the full two-pass dependency graph for the given
// (possibly skeleton) junction tree. A tree with a single clique yields an
// empty graph.
func Build(t *jtree.Tree) *Graph { return build(t, true) }

// BuildCollectOnly constructs only the collection pass (leaves to root).
// After executing it, the root clique — and only the root clique — holds
// the evidence-calibrated potential, which suffices to answer queries about
// the root clique's variables with roughly half the work of a full
// propagation.
func BuildCollectOnly(t *jtree.Tree) *Graph { return build(t, false) }

func build(t *jtree.Tree, withDistribute bool) *Graph {
	g := &Graph{Tree: t}
	idx := make(map[int]taskIdx) // child clique id -> its edge's tasks

	add := func(k Kind, d Direction, edge, source, target int, w float64, grain int) int {
		id := len(g.Tasks)
		g.Tasks = append(g.Tasks, Task{
			ID: id, Kind: k, Dir: d, Edge: edge, Source: source, Target: target,
			Weight: w, Grain: grain,
		})
		return id
	}
	dep := func(from, to int) {
		g.Tasks[from].Succs = append(g.Tasks[from].Succs, to)
		g.Tasks[to].NDeps++
	}

	// Create the eight tasks of every edge. Edges are identified by the
	// child clique id in the *current* rooting.
	for c := range t.Cliques {
		p := t.Cliques[c].Parent
		if p < 0 {
			continue
		}
		childSize := float64(t.Cliques[c].TableSize())
		parentSize := float64(t.Cliques[p].TableSize())
		sepSize := float64(t.Cliques[c].SepSize())
		// Kernel grains: Marginalize and Extend range over a clique table
		// aligned against the edge's separator, so their grain is the
		// constant-run length of that (clique ⊇ separator) pair. Divide runs
		// elementwise over the separator and Multiply multiplies a clique by
		// a same-domain extension buffer — both purely contiguous, grain 1.
		childGrain := potential.PartitionGrain(t.Cliques[c].Vars, t.Cliques[c].Card, t.Cliques[c].SepVars)
		parentGrain := potential.PartitionGrain(t.Cliques[p].Vars, t.Cliques[p].Card, t.Cliques[c].SepVars)
		ti := taskIdx{
			cm: add(Marginalize, Collect, c, c, p, childSize, childGrain),
			cd: add(Divide, Collect, c, c, p, sepSize, 1),
			ce: add(Extend, Collect, c, c, p, parentSize, parentGrain),
			cu: add(Multiply, Collect, c, c, p, parentSize, 1),
			dm: -1, dd: -1, de: -1, du: -1,
		}
		if withDistribute {
			ti.dm = add(Marginalize, Distribute, c, p, c, parentSize, parentGrain)
			ti.dd = add(Divide, Distribute, c, p, c, sepSize, 1)
			ti.de = add(Extend, Distribute, c, p, c, childSize, childGrain)
			ti.du = add(Multiply, Distribute, c, p, c, childSize, 1)
		}
		// Local chains: M -> D -> E -> U in both directions.
		dep(ti.cm, ti.cd)
		dep(ti.cd, ti.ce)
		dep(ti.ce, ti.cu)
		if withDistribute {
			dep(ti.dm, ti.dd)
			dep(ti.dd, ti.de)
			dep(ti.de, ti.du)
		}
		idx[c] = ti
	}

	// Cross-edge dependencies.
	for c := range t.Cliques {
		children := t.Cliques[c].Children
		// Serialize the collection multiplies into clique c: they all write
		// ψc, so they form a chain (the paper's local task graph orders the
		// per-clique updates).
		for i := 1; i < len(children); i++ {
			dep(idx[children[i-1]].cu, idx[children[i]].cu)
		}
		lastCU := -1
		if len(children) > 0 {
			lastCU = idx[children[len(children)-1]].cu
		}

		if p := t.Cliques[c].Parent; p >= 0 {
			ti := idx[c]
			// c's upward marginalization waits for all collection updates
			// into c (transitively via the last element of the chain).
			if lastCU >= 0 {
				dep(lastCU, ti.cm)
			}
			if !withDistribute {
				continue
			}
			// The downward marginalization toward c reads ψp, which must
			// be fully updated first.
			if gp := t.Cliques[p].Parent; gp >= 0 {
				dep(idx[p].du, ti.dm)
			} else {
				// p is the root: it is ready once every collection update
				// into it has run.
				rc := t.Cliques[p].Children
				if len(rc) > 0 {
					dep(idx[rc[len(rc)-1]].cu, ti.dm)
				}
			}
			// No explicit ordering is needed for the downward multiply
			// into ψc: it transitively follows c's upward marginalization
			// (dm waits for the parent's update, which waits for cm), and
			// the only other writers of ψc — c's children's collection
			// multiplies — already precede cm.
		}
	}
	return g
}

// N returns the number of tasks.
func (g *Graph) N() int { return len(g.Tasks) }

// Sources returns the ids of tasks with no dependencies (initially ready).
func (g *Graph) Sources() []int {
	var out []int
	for i := range g.Tasks {
		if g.Tasks[i].NDeps == 0 {
			out = append(out, i)
		}
	}
	return out
}

// DepCounts returns a fresh slice of the per-task dependency counts,
// suitable for one execution of the graph.
func (g *Graph) DepCounts() []int32 {
	out := make([]int32, len(g.Tasks))
	for i := range g.Tasks {
		out[i] = int32(g.Tasks[i].NDeps)
	}
	return out
}

// TotalWeight returns the sum of all task weights (serial work).
func (g *Graph) TotalWeight() float64 {
	w := 0.0
	for i := range g.Tasks {
		w += g.Tasks[i].Weight
	}
	return w
}

// CriticalPathWeight returns the weight of the heaviest dependency chain,
// the lower bound on any schedule's makespan in weight units.
func (g *Graph) CriticalPathWeight() float64 {
	order, _ := g.TopoOrder()
	longest := make([]float64, len(g.Tasks))
	best := 0.0
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		t := &g.Tasks[id]
		m := 0.0
		for _, s := range t.Succs {
			if longest[s] > m {
				m = longest[s]
			}
		}
		longest[id] = t.Weight + m
		if longest[id] > best {
			best = longest[id]
		}
	}
	return best
}

// TopoOrder returns a topological order of the tasks, or an error if the
// graph has a cycle (which would indicate a construction bug).
func (g *Graph) TopoOrder() ([]int, error) {
	deps := g.DepCounts()
	queue := make([]int, 0, len(g.Tasks))
	for i, d := range deps {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(g.Tasks))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range g.Tasks[id].Succs {
			deps[s]--
			if deps[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		return nil, fmt.Errorf("taskgraph: cycle detected (%d of %d tasks ordered)", len(order), len(g.Tasks))
	}
	return order, nil
}

// Levels partitions the tasks into dependency levels: level 0 holds the
// sources, level k the tasks whose longest predecessor chain has k edges.
// This is the schedule shape of the OpenMP-style level-synchronous
// baseline.
func (g *Graph) Levels() [][]int {
	order, _ := g.TopoOrder()
	level := make([]int, len(g.Tasks))
	maxLevel := 0
	for _, id := range order {
		for _, s := range g.Tasks[id].Succs {
			if level[id]+1 > level[s] {
				level[s] = level[id] + 1
			}
		}
		if level[id] > maxLevel {
			maxLevel = level[id]
		}
	}
	out := make([][]int, maxLevel+1)
	for id, l := range level {
		out[l] = append(out[l], id)
	}
	return out
}

// Validate checks structural invariants: acyclicity, in-degree consistency
// and positive weights.
func (g *Graph) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	indeg := make([]int, len(g.Tasks))
	for i := range g.Tasks {
		for _, s := range g.Tasks[i].Succs {
			if s < 0 || s >= len(g.Tasks) {
				return fmt.Errorf("taskgraph: task %d has successor %d out of range", i, s)
			}
			indeg[s]++
		}
	}
	for i := range g.Tasks {
		if indeg[i] != g.Tasks[i].NDeps {
			return fmt.Errorf("taskgraph: task %d NDeps=%d but in-degree=%d", i, g.Tasks[i].NDeps, indeg[i])
		}
		if g.Tasks[i].Weight <= 0 {
			return fmt.Errorf("taskgraph: task %d has weight %v", i, g.Tasks[i].Weight)
		}
	}
	return nil
}

// String summarizes a task for logs and test failures.
func (t *Task) String() string {
	return fmt.Sprintf("#%d %s/%s edge=%d %d->%d w=%.0f",
		t.ID, t.Dir, t.Kind, t.Edge, t.Source, t.Target, t.Weight)
}

// WriteDOT renders the dependency graph in Graphviz DOT form, one node per
// task colored by direction and shaped by primitive kind — a debugging and
// documentation aid (`dot -Tsvg`).
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph taskgraph {\n  rankdir=TB;\n  node [fontsize=9];\n")
	for i := range g.Tasks {
		t := &g.Tasks[i]
		shape := "box"
		switch t.Kind {
		case Marginalize:
			shape = "invtrapezium"
		case Divide:
			shape = "diamond"
		case Extend:
			shape = "trapezium"
		}
		color := "lightblue"
		if t.Dir == Distribute {
			color = "lightsalmon"
		}
		fmt.Fprintf(&b, "  t%d [label=\"%s\\n%s e%d w=%.0f\" shape=%s style=filled fillcolor=%s];\n",
			t.ID, t.Kind, t.Dir, t.Edge, t.Weight, shape, color)
	}
	for i := range g.Tasks {
		for _, s := range g.Tasks[i].Succs {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", i, s)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
