package potential

import "fmt"

// Align is the immutable run plan pairing a superset domain with a subset
// domain. It is the shared inner machinery of multiplication, division,
// extension and marginalization, all of which pair each entry of the larger
// table with one entry of the smaller.
//
// Because tables are row-major with the last variable fastest, the superset
// index space factors into maximal runs of runLen consecutive entries over
// which the subset index is either constant (contig == false: the trailing
// superset variables are absent from the subset) or advances by exactly one
// per entry (contig == true: the trailing superset variables are shared with
// the subset and dense there). The blocked kernels in kernels.go walk runs —
// one O(w) seek per range plus one O(1)-amortized advance per run — and run
// flat slice loops inside each run.
//
// An Align depends only on the two domains, so it is built once per domain
// pair (taskgraph.Build stamps one on every task) and shared read-only by
// any number of concurrent kernel calls. Each call keeps its odometer state
// in a cursor on its own stack.
type Align struct {
	supVars, supCard []int // superset domain
	subVars, subCard []int // subset domain
	subStride        []int // stride of each superset variable in the subset (0 if absent)

	runLen  int  // entries per maximal run (≥ 1; divides the table size)
	contig  bool // subset index advances +1 per entry within a run (else constant)
	nPrefix int  // leading superset dims that change only across run boundaries
}

// NewAlign builds the run plan from the superset domain (supVars, supCard)
// to the subset domain (subVars, subCard). Every subset variable must appear
// in the superset with the same cardinality. The plan keeps the domain
// slices it is given, which must not be mutated afterwards.
func NewAlign(supVars, supCard, subVars, subCard []int) (*Align, error) {
	if len(supVars) != len(supCard) || len(subVars) != len(subCard) {
		return nil, fmt.Errorf("potential: malformed domain pair %v/%v onto %v/%v", supVars, supCard, subVars, subCard)
	}
	a := &Align{
		supVars: supVars, supCard: supCard,
		subVars: subVars, subCard: subCard,
		subStride: make([]int, len(supVars)),
	}
	// Subset strides by position, accumulated right to left as the
	// superset walk meets the subset variables in reverse.
	j := len(subVars) - 1
	acc := 1
	for i := len(supVars) - 1; i >= 0; i-- {
		v := supVars[i]
		if j >= 0 && subVars[j] > v {
			return nil, fmt.Errorf("potential: variable %d of subset not present in superset %v", subVars[j], supVars)
		}
		if j >= 0 && subVars[j] == v {
			if subCard[j] != supCard[i] {
				return nil, fmt.Errorf("potential: variable %d has cardinality %d and %d", v, supCard[i], subCard[j])
			}
			a.subStride[i] = acc
			acc *= subCard[j]
			j--
		}
	}
	if j >= 0 {
		return nil, fmt.Errorf("potential: variable %d of subset not present in superset %v", subVars[j], supVars)
	}
	a.planRuns()
	return a, nil
}

// planRuns classifies the maximal trailing dimension block of the superset.
// A trailing absent variable (subStride 0) can only be followed by further
// absent variables in the suffix scan, and a trailing shared variable is
// necessarily the subset's own last variable (stride 1), so the two suffix
// shapes are mutually exclusive: either the suffix is absent → constant
// runs, or it is shared-and-dense → contiguous runs. Dimensions interior to
// the prefix are handled by the run odometer regardless of shape.
func (a *Align) planRuns() {
	n := len(a.supCard)
	a.runLen = 1
	i := n - 1
	if n > 0 && a.subStride[n-1] != 0 {
		// Trailing variables shared with the subset: extend the suffix while
		// the subset stride matches the dense row-major pattern.
		a.contig = true
		acc := 1
		for i >= 0 && a.subStride[i] == acc {
			a.runLen *= a.supCard[i]
			acc *= a.supCard[i]
			i--
		}
	} else {
		// Trailing variables absent from the subset: the subset index is
		// constant over the run.
		for i >= 0 && a.subStride[i] == 0 {
			a.runLen *= a.supCard[i]
			i--
		}
	}
	a.nPrefix = i + 1
}

// check verifies that sup and sub carry exactly the plan's domains — an
// O(w) compare that does not allocate on success. A plan applied to tables
// over other domains would silently pair the wrong entries.
func (a *Align) check(sup, sub *Potential) error {
	if !sameInts(sup.Vars, a.supVars) || !sameInts(sup.Card, a.supCard) {
		return fmt.Errorf("potential: table over %v/%v does not match plan superset %v/%v", sup.Vars, sup.Card, a.supVars, a.supCard)
	}
	if !sameInts(sub.Vars, a.subVars) || !sameInts(sub.Card, a.subCard) {
		return fmt.Errorf("potential: table over %v/%v does not match plan subset %v/%v", sub.Vars, sub.Card, a.subVars, a.subCard)
	}
	return nil
}

func sameInts(x, y []int) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// stackDims is the widest superset domain whose odometer digits a kernel
// call keeps in a fixed stack array; wider domains fall back to the heap.
const stackDims = 32

// aligner is one kernel call's walk over an Align: the odometer digits and
// the tracked subset index. The plan-form kernels keep it, digits included,
// on the caller's stack.
type aligner struct {
	*Align
	digits []int // current per-variable state in the superset
	subIdx int   // linear index in the subset for the current position
}

// cursor returns a walk over the plan whose digits live in buf when the
// domain fits.
func (a *Align) cursor(buf *[stackDims]int) aligner {
	n := len(a.supCard)
	if n <= stackDims {
		return aligner{Align: a, digits: buf[:n]}
	}
	return aligner{Align: a, digits: make([]int, n)}
}

// newAligner builds a plan and a heap cursor over it, for the per-entry
// scalar reference path.
func newAligner(supVars, supCard, subVars, subCard []int) (*aligner, error) {
	a, err := NewAlign(supVars, supCard, subVars, subCard)
	if err != nil {
		return nil, err
	}
	return &aligner{Align: a, digits: make([]int, len(supVars))}, nil
}

// seek positions the aligner at superset linear index idx.
func (c *aligner) seek(idx int) {
	card, stride := c.supCard, c.subStride
	sub := 0
	for i := len(card) - 1; i >= 0; i-- {
		d := idx % card[i]
		idx /= card[i]
		c.digits[i] = d
		sub += d * stride[i]
	}
	c.subIdx = sub
}

// next advances the aligner by one superset index, odometer style, updating
// the tracked subset index in O(1) amortized time.
func (c *aligner) next() {
	card, stride := c.supCard, c.subStride
	for i := len(card) - 1; i >= 0; i-- {
		c.digits[i]++
		c.subIdx += stride[i]
		if c.digits[i] < card[i] {
			return
		}
		c.digits[i] = 0
		c.subIdx -= card[i] * stride[i]
	}
}

// advanceRun moves the aligner from the start of one run to the start of the
// next, stepping only the prefix dims (the suffix digits are zero at every
// run boundary). Like next it is O(1) amortized.
func (c *aligner) advanceRun() {
	card, stride := c.supCard, c.subStride
	for i := c.nPrefix - 1; i >= 0; i-- {
		c.digits[i]++
		c.subIdx += stride[i]
		if c.digits[i] < card[i] {
			return
		}
		c.digits[i] = 0
		c.subIdx -= card[i] * stride[i]
	}
}
