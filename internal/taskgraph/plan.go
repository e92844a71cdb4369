package taskgraph

// CacheLineEntries is one 64-byte cache line of float64 table entries, the
// minimum useful piece granularity: a split inside a line makes two workers
// touch (and for Multiply/Divide, write) the same line.
const CacheLineEntries = 8

// MinPiece is the fewest table entries one piece of the automatic plan
// carries. Dispatching a piece — push onto a ready list, fetch, a combiner
// decrement, and for Marginalize a private buffer to zero and fold — costs
// a fixed amount of scheduler work, so a piece must be long enough for
// that cost to stay within ~10% of its kernel time. BenchmarkPoolRun
// (internal/sched, 2-vCPU Xeon, GOMAXPROCS 2) prices both sides: on the
// serve-distinct shape the paper's rule at the old automatic δ = 56 runs
// 168 extra items per propagation and costs 108–146 µs more than the plan,
// ≈ 0.8 µs per dispatched item; on the paper-wide shape with partitioning
// off, 5.1 M entries take 12.6–13.5 ms, ≈ 2.5 ns per entry. A 4096-entry
// piece is ≈ 10 µs of kernel work, so dispatch stays near 8%. On both
// shapes any minimum from 65 to 16384 entries yields the same plans.
const MinPiece = 4096

// SnapStep rounds the partition threshold δ up to the piece length actually
// used: a multiple of the task's kernel grain (so split points land on run
// boundaries of the blocked kernels — each piece then pays one O(w) seek and
// no two pieces reduce into the same destination cell) that also spans at
// least one cache line. Tasks with sub-line grains keep run alignment — the
// bumped grain is a multiple of the original — while tasks whose grain
// already exceeds a line are left on pure run boundaries.
func SnapStep(δ, grain int) int {
	g := grain
	if g < 1 {
		g = 1
	}
	if g < CacheLineEntries {
		g *= (CacheLineEntries + g - 1) / g
	}
	return (δ + g - 1) / g * g
}

// Plan is a task graph's δ-partition plan, computed once per graph: for
// every task, the piece length the schedulers' Partition module cuts it
// into, or 0 when the task always runs whole. The schedulers look the step
// up by task ID instead of snapping δ on every fetch.
//
// A plan follows one of two rules:
//
//   - Explicit (Delta > 0), the paper's: a task whose run-time range
//     exceeds δ is cut into ⌈size/step⌉ pieces of SnapStep(δ, grain).
//   - Automatic (Delta == 0): a task is cut only where it pays. The piece
//     target is twice the mean clique table (at least MinPiece), balanced
//     over the table and snapped to the grain; the task splits only if
//     every piece then carries at least MinPiece entries and, for a
//     Marginalize, the n private separator buffers (2·n·|S| entry-ops to
//     zero and combine) cost at most half the |C| entries the pieces
//     process.
type Plan struct {
	// Delta is the explicit threshold δ the plan follows, 0 for the
	// automatic plan.
	Delta int
	// Splittable counts the tasks the plan allows to split at the sizes
	// of the compiled model (an upper bound: a lazy engine's evidence
	// hulls can shrink a Marginalize below its step at run time).
	Splittable int
	rules      []pieceRule
}

// pieceRule is one task's entry in a Plan: its piece length (0 = never
// split) and, for an automatically planned Marginalize, its separator size.
type pieceRule struct {
	step, sep int
}

// Auto reports whether the plan follows the automatic rule.
func (p *Plan) Auto() bool { return p.Delta == 0 }

// Step returns task id's planned piece length, 0 when it never splits.
func (p *Plan) Step(id int) int { return p.rules[id].step }

// Split returns how task id, whose run-time index range spans size
// entries, is cut: n pieces of step entries (the last one possibly
// shorter). n == 0 means run it whole, as does a nil plan. The automatic
// rule re-applies its piece-size and buffer checks to the run-time size, so
// a task whose range shrank (a lazy engine's evidence hull) stays whole
// rather than yield undersized pieces.
func (p *Plan) Split(id, size int) (n, step int) {
	if p == nil {
		return 0, 0
	}
	r := p.rules[id]
	if r.step == 0 {
		return 0, 0
	}
	if p.Delta > 0 {
		if size <= p.Delta {
			return 0, 0
		}
		return (size + r.step - 1) / r.step, r.step
	}
	n = (size + r.step - 1) / r.step
	if n < 2 || size-(n-1)*r.step < MinPiece || 4*n*r.sep > size {
		return 0, 0
	}
	return n, r.step
}

// PlanAuto computes the automatic plan and attaches it to the graph, so
// scheduler runs with threshold 0 follow it. It must be called before the
// graph is shared with concurrent runs.
func (g *Graph) PlanAuto() *Plan {
	p := &Plan{rules: make([]pieceRule, len(g.Tasks))}
	t := g.Tree
	total := 0
	for i := range t.Cliques {
		total += t.Cliques[i].TableSize()
	}
	target := max(MinPiece, 2*total/t.N())
	for id := range g.Tasks {
		task := &g.Tasks[id]
		size := g.plannedSize(task)
		n := (size + target - 1) / target
		if n < 2 {
			continue
		}
		r := pieceRule{step: SnapStep((size+n-1)/n, task.Grain)}
		if task.Kind == Marginalize {
			r.sep = t.Cliques[task.Edge].SepSize()
		}
		p.rules[id] = r
		if n, _ := p.Split(id, size); n == 0 {
			p.rules[id] = pieceRule{}
			continue
		}
		p.Splittable++
	}
	g.auto = p
	return p
}

// explicitPlan builds the paper's rule for threshold δ > 0.
func (g *Graph) explicitPlan(δ int) *Plan {
	p := &Plan{Delta: δ, rules: make([]pieceRule, len(g.Tasks))}
	for id := range g.Tasks {
		p.rules[id].step = SnapStep(δ, g.Tasks[id].Grain)
		if g.plannedSize(&g.Tasks[id]) > δ {
			p.Splittable++
		}
	}
	return p
}

// PartitionPlan returns the plan a scheduler run with threshold δ follows:
// for δ > 0 the paper's rule (built on first use and cached), for δ == 0
// the automatic plan PlanAuto attached, and nil — no partitioning — when δ
// is negative or no automatic plan is attached. Safe for concurrent use.
func (g *Graph) PartitionPlan(δ int) *Plan {
	switch {
	case δ == 0:
		return g.auto
	case δ < 0:
		return nil
	}
	if p := g.explicit.Load(); p != nil && p.Delta == δ {
		return p
	}
	p := g.explicitPlan(δ)
	g.explicit.Store(p)
	return p
}

// plannedSize is the index range a task's kernel spans at the compiled
// model's table sizes: the source clique for Marginalize, the separator
// for Divide, the target clique for Extend and Multiply.
func (g *Graph) plannedSize(t *Task) int {
	c := g.Tree.Cliques
	switch t.Kind {
	case Marginalize:
		return c[t.Source].TableSize()
	case Divide:
		return c[t.Edge].SepSize()
	default:
		return c[t.Target].TableSize()
	}
}
