package taskgraph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"evprop/internal/jtree"
	"evprop/internal/potential"
)

// Mode selects the semiring a State propagates over.
type Mode int

const (
	// SumProduct computes posterior marginals (ordinary evidence
	// propagation).
	SumProduct Mode = iota
	// MaxProduct computes max-marginals, turning propagation into a
	// most-probable-explanation solver: the Marginalize primitive
	// maximizes instead of summing; the other primitives are unchanged.
	MaxProduct
)

func (m Mode) String() string {
	if m == MaxProduct {
		return "max-product"
	}
	return "sum-product"
}

// State holds the working storage for one execution of a task graph, in
// two parts with different lifetimes:
//
//   - the tables: the clique and separator potentials, copied from the
//     tree into one []float64 slab behind one header slice. Their Vars and
//     Card slices are the tree's own, shared read-only. After a run the
//     tables hold the result, and they are all a reader ever touches.
//   - the message scratch: the per-edge marginal/ratio and extension
//     buffers and the partial-buffer free lists, which carry a message
//     between its four tasks and are dead once the run completes. Scratch
//     is pooled per Graph: ReleaseScratch hands it back while the tables
//     stay readable, and the next task run on the state re-acquires one.
//
// Two tasks may touch the same buffer only if the dependency graph orders
// them, so a State may be driven by any number of worker goroutines that
// respect the graph.
type State struct {
	g    *Graph
	mode Mode
	// Clique[i] is the working potential of clique i.
	Clique []*potential.Potential
	// Sep[c] is the stored separator potential ψS of the edge (c, parent).
	Sep []*potential.Potential
	// scr is the message scratch, nil after ReleaseScratch.
	scr atomic.Pointer[scratch]
}

// scratch is a State's message working storage.
type scratch struct {
	// sepNew[c] receives the freshly marginalized ψ*S, then holds the
	// ratio ψ*S/ψS after the Divide step.
	sepNew []*potential.Potential
	// tempUp[c] / tempDown[c] receive the extension of the ratio onto the
	// parent's / child's domain (tempDown stays nil on collect-only
	// graphs). Both view ext[c].
	tempUp   []*potential.Potential
	tempDown []*potential.Potential
	ext      [][]float64
	// parts[c] holds the private accumulation buffers of split Marginalize
	// tasks on edge c.
	parts []edgeParts
}

// edgeParts holds one edge's partial buffers, kept across runs; n of them
// are handed out to the split in flight. The first ones view the edge's
// extension storage, which holds nothing live while either pass's
// Marginalize on the edge runs: each pass writes it only in its Extend,
// after its Divide, and the collect pass's Multiply has read it before the
// distribute pass starts. Only splits into more pieces than fit there
// allocate buffers. mu is per edge because the pieces of one task may ask
// for their buffers concurrently (the data-parallel baseline does), while
// splits of different edges never contend; the padding keeps neighbouring
// edges' locks off one cache line.
type edgeParts struct {
	mu   sync.Mutex
	bufs []*potential.Potential
	n    int
	_    [24]byte
}

// NewState allocates working storage for one sum-product propagation over
// the graph's tree, which must be materialized (clique and separator
// potentials non-nil). The tree itself is left untouched.
func (g *Graph) NewState() (*State, error) { return g.NewStateMode(SumProduct) }

// NewStateMode is NewState with an explicit semiring.
func (g *Graph) NewStateMode(mode Mode) (*State, error) {
	t := g.Tree
	n := t.N()
	size := 0
	for i := range t.Cliques {
		c := &t.Cliques[i]
		if c.Pot == nil {
			return nil, fmt.Errorf("taskgraph: clique %d not materialized", i)
		}
		size += len(c.Pot.Data)
		if c.Parent < 0 {
			continue
		}
		if c.SepPot == nil {
			return nil, fmt.Errorf("taskgraph: clique %d separator not materialized", i)
		}
		size += len(c.SepPot.Data)
	}
	slab := make([]float64, size)
	hdr := make([]potential.Potential, 2*n)
	ptr := make([]*potential.Potential, 2*n)
	off := 0
	for k := range hdr {
		src := t.Cliques[k%n].Pot
		if k >= n {
			if src = t.Cliques[k-n].SepPot; t.Cliques[k-n].Parent < 0 {
				continue
			}
		}
		d := slab[off : off+len(src.Data) : off+len(src.Data)]
		off += len(d)
		copy(d, src.Data)
		hdr[k] = potential.Potential{Vars: src.Vars, Card: src.Card, Data: d}
		ptr[k] = &hdr[k]
	}
	st := &State{g: g, mode: mode, Clique: ptr[:n:n], Sep: ptr[n:]}
	st.scratch()
	return st, nil
}

// newScratch allocates one message scratch for the graph's tree, its
// buffers carved from one slab over the tree's skeleton domains. An edge's
// two extension buffers share storage: every collect task precedes every
// distribute task (the root is complete only after the whole collection,
// and every distribute message descends from it), so tempUp[c] is dead
// before tempDown[c] is first written.
func (g *Graph) newScratch() *scratch {
	t := g.Tree
	n := t.N()
	down := false
	for i := range g.Tasks {
		if g.Tasks[i].Dir == Distribute {
			down = true
			break
		}
	}
	temp := func(c *jtree.Clique) int {
		m := t.Cliques[c.Parent].TableSize()
		if down {
			m = max(m, c.TableSize())
		}
		return m
	}
	size := 0
	for i := range t.Cliques {
		if c := &t.Cliques[i]; c.Parent >= 0 {
			size += c.SepSize() + temp(c)
		}
	}
	slab := make([]float64, size)
	hdr := make([]potential.Potential, 3*n)
	ptr := make([]*potential.Potential, 3*n)
	view := func(k int, vars, card []int, data []float64) {
		m := potential.Size(card)
		hdr[k] = potential.Potential{Vars: vars, Card: card, Data: data[:m:m]}
		ptr[k] = &hdr[k]
	}
	scr := &scratch{
		sepNew: ptr[:n:n], tempUp: ptr[n : 2*n : 2*n], tempDown: ptr[2*n:],
		ext: make([][]float64, n), parts: make([]edgeParts, n),
	}
	off := 0
	for i := range t.Cliques {
		c := &t.Cliques[i]
		if c.Parent < 0 {
			continue
		}
		view(i, c.SepVars, c.SepCard, slab[off:])
		off += c.SepSize()
		ext := slab[off : off+temp(c) : off+temp(c)]
		off += len(ext)
		scr.ext[i] = ext
		view(n+i, t.Cliques[c.Parent].Vars, t.Cliques[c.Parent].Card, ext)
		if down {
			view(2*n+i, c.Vars, c.Card, ext)
		}
	}
	return scr
}

// scratch returns the state's message scratch, acquiring one from the
// graph's pool if the state has none. NewStateMode and Reset acquire it
// up front, so a run never pays for it inside a task; the acquisition here
// only keeps a released state that is run without Reset working.
// Concurrent first callers race on a compare-and-swap; the losers return
// theirs to the pool.
func (st *State) scratch() *scratch {
	if s := st.scr.Load(); s != nil {
		return s
	}
	s, _ := st.g.scratch.Get().(*scratch)
	if s == nil {
		s = st.g.newScratch()
	}
	if st.scr.CompareAndSwap(nil, s) {
		return s
	}
	st.g.scratch.Put(s)
	return st.scr.Load()
}

// ReleaseScratch hands the state's message scratch back to the graph's
// pool for other states to run on. The clique and separator tables — the
// propagation result — stay readable. Call it only when no run is in
// flight on the state; running the state again re-acquires scratch.
func (st *State) ReleaseScratch() {
	if s := st.scr.Swap(nil); s != nil {
		s.closeSplits()
		st.g.scratch.Put(s)
	}
}

// HasScratch reports whether the state currently holds message scratch.
func (st *State) HasScratch() bool { return st.scr.Load() != nil }

// Reset re-primes a previously executed state for a fresh propagation with
// the given semiring, copying the tree's clique and separator potentials
// back into the existing tables without allocating, and re-acquires
// message scratch if ReleaseScratch gave it away. The scratch needs no
// clearing (every Marginalize zeroes its destination before accumulating,
// and Extend fully overwrites the extension buffers before Multiply reads
// them), so only the tables the previous run calibrated are restored —
// and any split a failed run left open is closed. Reset plus reuse is the
// pooling layer that makes steady-state propagation near-allocation-free.
func (st *State) Reset(mode Mode) {
	st.mode = mode
	st.scratch().closeSplits()
	t := st.g.Tree
	for i := range t.Cliques {
		c := &t.Cliques[i]
		copy(st.Clique[i].Data, c.Pot.Data)
		if c.Parent < 0 {
			continue
		}
		copy(st.Sep[i].Data, c.SepPot.Data)
	}
}

// AbsorbEvidence reduces every working clique potential on the evidence.
// Call once before executing the graph.
func (st *State) AbsorbEvidence(ev potential.Evidence) error {
	for i, p := range st.Clique {
		if err := p.Reduce(ev); err != nil {
			return fmt.Errorf("taskgraph: clique %d: %w", i, err)
		}
	}
	return nil
}

// AbsorbLikelihood multiplies soft (virtual) evidence into the state: each
// variable's weight vector is applied to exactly one clique containing it
// (applying it more than once would square the weights).
func (st *State) AbsorbLikelihood(like potential.Likelihood) error {
	for v := range like {
		ci := st.g.Tree.CliqueOf(v)
		if ci < 0 {
			return fmt.Errorf("taskgraph: likelihood on unknown variable %d", v)
		}
		if err := st.Clique[ci].ApplyLikelihood(like, v); err != nil {
			return fmt.Errorf("taskgraph: clique %d: %w", ci, err)
		}
	}
	return nil
}

// Graph returns the graph this state executes.
func (st *State) Graph() *Graph { return st.g }

// Mode returns the semiring this state propagates over.
func (st *State) Mode() Mode { return st.mode }

// Execute runs the whole task (no partitioning).
func (st *State) Execute(id int) error {
	t := &st.g.Tasks[id]
	if t.Kind == Marginalize {
		return st.ExecutePiece(id, 0, st.PartitionSize(id), st.scratch().sepNew[t.Edge])
	}
	return st.ExecutePiece(id, 0, st.PartitionSize(id), nil)
}

// PartitionSize returns the length of the index range over which the task
// may be split into independent pieces. It reads only the tables, so it
// needs no scratch: Extend spans its target clique (the parent on collect,
// the child on distribute), exactly the domain of its extension buffer.
func (st *State) PartitionSize(id int) int {
	t := &st.g.Tasks[id]
	switch t.Kind {
	case Marginalize:
		return st.Clique[t.Source].Len() // input-partitioned
	case Divide:
		return st.Sep[t.Edge].Len()
	case Extend, Multiply:
		return st.Clique[t.Target].Len()
	}
	return 0
}

// NewPartialBuffer returns a private accumulation buffer for a piece of a
// Marginalize task — its contents are stale until ExecutePiece overwrites
// them — and nil for every other kind (their pieces write disjoint output
// ranges and need no buffer). Buffers come from the edge's extension
// storage or, past its capacity, the heap, and Combine hands them all
// back, so a warmed scratch splits tasks without allocating. It is safe
// for concurrent use.
func (st *State) NewPartialBuffer(id int) *potential.Potential {
	t := &st.g.Tasks[id]
	if t.Kind != Marginalize {
		return nil
	}
	scr := st.scratch()
	e := t.Edge
	p := &scr.parts[e]
	p.mu.Lock()
	defer p.mu.Unlock()
	k := p.n
	p.n++
	if k < len(p.bufs) {
		return p.bufs[k]
	}
	sep := scr.sepNew[e]
	m := len(sep.Data)
	var data []float64
	if ext := scr.ext[e]; (k+1)*m <= len(ext) {
		data = ext[k*m : (k+1)*m : (k+1)*m]
	} else {
		data = make([]float64, m)
	}
	b := &potential.Potential{Vars: sep.Vars, Card: sep.Card, Data: data}
	p.bufs = append(p.bufs, b)
	return b
}

// closeSplits forgets the buffers handed out to splits a failed run left
// open. Only for a scratch no run is using.
func (scr *scratch) closeSplits() {
	for i := range scr.parts {
		scr.parts[i].n = 0
	}
}

// ExecutePiece runs the [lo,hi) slice of the task along its stamped kernel
// plan. For Marginalize, buf receives the slice's partial marginal: it is
// zeroed — by the piece itself, so the Partition module that hands out the
// buffers does no per-entry work — and then accumulated into. buf is a
// private buffer from NewPartialBuffer, or the shared separator buffer
// when running unpartitioned; other kinds ignore it.
func (st *State) ExecutePiece(id, lo, hi int, buf *potential.Potential) error {
	t := &st.g.Tasks[id]
	if t.Align == nil && t.Kind != Divide {
		return fmt.Errorf("taskgraph: task %s has no kernel plan (graph not sealed)", t.String())
	}
	scr := st.scratch()
	switch t.Kind {
	case Marginalize:
		if buf == nil {
			return fmt.Errorf("taskgraph: marginalize piece without buffer")
		}
		clear(buf.Data)
		if st.mode == MaxProduct {
			return st.Clique[t.Source].MaxMarginalAligned(t.Align, buf, lo, hi)
		}
		return st.Clique[t.Source].MarginalAligned(t.Align, buf, lo, hi)
	case Divide:
		return st.divideRange(scr, t.Edge, lo, hi)
	case Extend:
		return scr.sepNew[t.Edge].ExtendAligned(t.Align, scr.temp(t), lo, hi)
	case Multiply:
		return st.Clique[t.Target].MulAligned(t.Align, scr.temp(t), lo, hi)
	}
	return fmt.Errorf("taskgraph: unknown kind %v", t.Kind)
}

// temp returns the extension buffer of the task's message: over the parent
// clique on collect, over the child clique on distribute.
func (scr *scratch) temp(t *Task) *potential.Potential {
	if t.Dir == Collect {
		return scr.tempUp[t.Edge]
	}
	return scr.tempDown[t.Edge]
}

// Combine finishes a partitioned Marginalize: it zeroes the shared sepNew
// buffer, adds every private piece buffer into it and takes the buffers
// back. For other kinds it is a no-op (their pieces already wrote the
// output).
func (st *State) Combine(id int, bufs []*potential.Potential) error {
	t := &st.g.Tasks[id]
	if t.Kind != Marginalize {
		return nil
	}
	scr := st.scratch()
	dst := scr.sepNew[t.Edge]
	clear(dst.Data)
	for _, b := range bufs {
		if st.mode == MaxProduct {
			if err := dst.MaxWith(b); err != nil {
				return err
			}
		} else if err := dst.Add(b); err != nil {
			return err
		}
	}
	p := &scr.parts[t.Edge]
	p.mu.Lock()
	p.n = 0
	p.mu.Unlock()
	return nil
}

// divideRange performs the fused Divide step over separator entries
// [lo,hi): ratio = ψ*S / ψS with 0/0 = 0, storing the ratio in sepNew and
// the new ψ*S into the stored separator, as Eq. 1 of the paper requires.
func (st *State) divideRange(scr *scratch, edge, lo, hi int) error {
	num := scr.sepNew[edge].Data
	den := st.Sep[edge].Data
	if lo < 0 || hi < lo || hi > len(num) || len(den) != len(num) {
		return fmt.Errorf("taskgraph: divide range [%d,%d) invalid for %d entries", lo, hi, len(num))
	}
	for i := lo; i < hi; i++ {
		fresh := num[i]
		if den[i] == 0 {
			num[i] = 0
		} else {
			num[i] = fresh / den[i]
		}
		den[i] = fresh
	}
	return nil
}

// RunSerial executes every task in topological order on this state. It is
// the reference executor; all parallel schedulers must produce bitwise the
// same clique potentials (up to floating-point associativity in partitioned
// marginalizations).
func (st *State) RunSerial() error {
	order, err := st.g.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		if err := st.Execute(id); err != nil {
			return fmt.Errorf("taskgraph: task %s: %w", st.g.Tasks[id].String(), err)
		}
	}
	return nil
}

// The calibration surface below lets engine code read a completed
// propagation without knowing whether it was produced eagerly (this type)
// or lazily (internal/lazy, which materializes tables on demand). On the
// eager state every table already holds its final value, so these are
// trivial accessors.

// CliquePot returns clique ci's potential table after propagation.
func (st *State) CliquePot(ci int) (*potential.Potential, error) {
	if ci < 0 || ci >= len(st.Clique) {
		return nil, fmt.Errorf("taskgraph: clique %d out of range", ci)
	}
	return st.Clique[ci], nil
}

// SepPot returns the stored separator potential of the edge above clique
// ci (ci must not be the root).
func (st *State) SepPot(ci int) (*potential.Potential, error) {
	if ci < 0 || ci >= len(st.Sep) || st.Sep[ci] == nil {
		return nil, fmt.Errorf("taskgraph: no separator above clique %d", ci)
	}
	return st.Sep[ci], nil
}

// EvidenceMass returns the total mass of the root clique after collect —
// the unnormalized probability of the absorbed evidence.
func (st *State) EvidenceMass() float64 {
	return st.Clique[st.g.Tree.Root].Sum()
}

// MassScale is the factor absolute table values must be multiplied by to
// recover true (unnormalized) probabilities. Eager propagation never skips
// a message, so its tables are exact and the scale is 1. Lazy propagation
// elides scalar-only messages and reports the product of the elided
// scalars here.
func (st *State) MassScale() float64 { return 1 }

// Calibrate is a no-op on the eager state: a full two-pass propagation
// leaves every clique and separator calibrated already.
func (st *State) Calibrate() error { return nil }

// Marginal extracts the normalized posterior of variable v from the state
// after propagation, by marginalizing a clique that contains v.
func (st *State) Marginal(v int) (*potential.Potential, error) {
	ci := st.g.Tree.CliqueOf(v)
	if ci < 0 {
		return nil, fmt.Errorf("taskgraph: no clique contains variable %d", v)
	}
	m, err := st.Clique[ci].Marginal([]int{v})
	if err != nil {
		return nil, err
	}
	if err := m.Normalize(); err != nil {
		return nil, fmt.Errorf("taskgraph: variable %d has zero posterior mass (impossible evidence?): %w", v, err)
	}
	return m, nil
}
