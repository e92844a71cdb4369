package potential

// Blocked (run-decomposed) kernel bodies for the four node-level primitives
// plus max-marginalization. Each walks an Align's run plan over [lo, hi)
// through a cursor (aligner) the caller owns:
// one O(w) seek to the run boundary at or below lo, then per run either a
// "slice ⊗ scalar" loop (constant runs — the trailing superset variables are
// absent from the subset, so one subset entry serves the whole run) or a
// flat elementwise slice-slice loop (contiguous runs — the subset index
// advances in lockstep). The per-entry arithmetic order is exactly that of
// the scalar reference path (ops.go / maxops.go), so blocked and scalar
// results are bit-identical, including the accumulation order of
// marginalization — the differential harness and the kernel fuzzer rely on
// this.
//
// Range endpoints need not be run-aligned: a mid-run lo or hi yields partial
// head/tail segments with the same inner-loop shapes. Aligned split points
// are still preferable — the scheduler snaps δ-partition boundaries to the
// task's grain (see PartitionGrain) so constant-run reductions stay private
// to one piece — but correctness never depends on it.

// mulBlocked multiplies p entries [lo, hi) in place by the aligned entries
// of q. a must walk the (p ⊇ q) plan and the range be already validated.
func (p *Potential) mulBlocked(q *Potential, a *aligner, lo, hi int) {
	if lo >= hi {
		return
	}
	pd, qd := p.Data, q.Data
	L := a.runLen
	base := lo - lo%L
	a.seek(base)
	for s := lo; s < hi; {
		e := base + L
		if e > hi {
			e = hi
		}
		seg := pd[s:e]
		if a.contig {
			qs := qd[a.subIdx+(s-base):]
			qs = qs[:len(seg)]
			for k := range seg {
				seg[k] *= qs[k]
			}
		} else {
			f := qd[a.subIdx]
			for k := range seg {
				seg[k] *= f
			}
		}
		s, base = e, e
		if s < hi {
			a.advanceRun()
		}
	}
}

// divBlocked divides p entries [lo, hi) in place by the aligned entries of
// q, with the junction-tree convention 0/0 = 0 (any x/0 is defined as 0, as
// in the scalar path).
func (p *Potential) divBlocked(q *Potential, a *aligner, lo, hi int) {
	if lo >= hi {
		return
	}
	pd, qd := p.Data, q.Data
	L := a.runLen
	base := lo - lo%L
	a.seek(base)
	for s := lo; s < hi; {
		e := base + L
		if e > hi {
			e = hi
		}
		seg := pd[s:e]
		if a.contig {
			qs := qd[a.subIdx+(s-base):]
			qs = qs[:len(seg)]
			for k := range seg {
				if d := qs[k]; d == 0 {
					seg[k] = 0
				} else {
					seg[k] /= d
				}
			}
		} else if f := qd[a.subIdx]; f == 0 {
			for k := range seg {
				seg[k] = 0
			}
		} else {
			for k := range seg {
				seg[k] /= f
			}
		}
		s, base = e, e
		if s < hi {
			a.advanceRun()
		}
	}
}

// marginalBlocked accumulates p entries [lo, hi) into dst. Constant runs
// reduce into a register seeded from the destination cell, preserving the
// scalar path's left-to-right addition order bit for bit.
func (p *Potential) marginalBlocked(dst *Potential, a *aligner, lo, hi int) {
	if lo >= hi {
		return
	}
	pd, dd := p.Data, dst.Data
	L := a.runLen
	base := lo - lo%L
	a.seek(base)
	for s := lo; s < hi; {
		e := base + L
		if e > hi {
			e = hi
		}
		seg := pd[s:e]
		if a.contig {
			ds := dd[a.subIdx+(s-base):]
			ds = ds[:len(seg)]
			for k := range seg {
				ds[k] += seg[k]
			}
		} else {
			acc := dd[a.subIdx]
			for k := range seg {
				acc += seg[k]
			}
			dd[a.subIdx] = acc
		}
		s, base = e, e
		if s < hi {
			a.advanceRun()
		}
	}
}

// maxMarginalBlocked maximizes p entries [lo, hi) into dst, the (max, ×)
// counterpart of marginalBlocked.
func (p *Potential) maxMarginalBlocked(dst *Potential, a *aligner, lo, hi int) {
	if lo >= hi {
		return
	}
	pd, dd := p.Data, dst.Data
	L := a.runLen
	base := lo - lo%L
	a.seek(base)
	for s := lo; s < hi; {
		e := base + L
		if e > hi {
			e = hi
		}
		seg := pd[s:e]
		if a.contig {
			ds := dd[a.subIdx+(s-base):]
			ds = ds[:len(seg)]
			for k := range seg {
				if v := seg[k]; v > ds[k] {
					ds[k] = v
				}
			}
		} else {
			m := dd[a.subIdx]
			for k := range seg {
				if v := seg[k]; v > m {
					m = v
				}
			}
			dd[a.subIdx] = m
		}
		s, base = e, e
		if s < hi {
			a.advanceRun()
		}
	}
}

// extendBlocked fills dst entries [lo, hi) with the aligned entries of p.
// Here the aligner runs over dst (the superset): constant runs become a
// scalar fill, contiguous runs a straight copy.
func (p *Potential) extendBlocked(dst *Potential, a *aligner, lo, hi int) {
	if lo >= hi {
		return
	}
	pd, dd := p.Data, dst.Data
	L := a.runLen
	base := lo - lo%L
	a.seek(base)
	for s := lo; s < hi; {
		e := base + L
		if e > hi {
			e = hi
		}
		seg := dd[s:e]
		if a.contig {
			copy(seg, pd[a.subIdx+(s-base):])
		} else {
			f := pd[a.subIdx]
			for k := range seg {
				seg[k] = f
			}
		}
		s, base = e, e
		if s < hi {
			a.advanceRun()
		}
	}
}

// PartitionGrain returns the preferred split alignment, in entries, for
// range-partitioned kernels pairing a superset table over (supVars, supCard)
// with a subset table over subVars: the constant-run length when the
// trailing superset variables are absent from the subset (a split inside
// such a run makes two pieces reduce into the same destination cell), and 1
// when the trailing variable is shared (contiguous runs split anywhere at
// equal cost). It needs only domains, not tables, so taskgraph.Build can
// stamp a grain on every task of a skeleton tree; subset variables not in
// the superset are ignored.
func PartitionGrain(supVars, supCard, subVars []int) int {
	g := 1
	j := len(subVars) - 1
	for i := len(supVars) - 1; i >= 0; i-- {
		for j >= 0 && subVars[j] > supVars[i] {
			j--
		}
		if j >= 0 && subVars[j] == supVars[i] {
			break // shared variable: the absent suffix ends here
		}
		g *= supCard[i]
	}
	return g
}
