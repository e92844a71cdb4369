package potential

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzKernelBlockedVsScalar drives the five blocked kernels against their
// per-entry scalar reference implementations with fuzzer-chosen domains,
// subset masks, range endpoints and table contents (including zeros, for the
// 0/0 = 0 division convention), requiring bit-identical results — the same
// differential style as internal/cache's FuzzEvidenceSignature. The fuzz
// inputs deterministically seed a PRNG, so every crash reproduces.
func FuzzKernelBlockedVsScalar(f *testing.F) {
	f.Add(int64(1), uint8(0b1010), uint8(3), uint16(0), uint16(200))
	f.Add(int64(2), uint8(0b0001), uint8(1), uint16(5), uint16(7))
	f.Add(int64(3), uint8(0b1111), uint8(0), uint16(1), uint16(1))
	f.Add(int64(4), uint8(0), uint8(5), uint16(0), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, mask, nv uint8, rawLo, rawHi uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nv%7) + 1 // 1..7 superset variables
		vars := make([]int, n)
		card := make([]int, n)
		for i := range vars {
			vars[i] = i
			card[i] = 1 + rng.Intn(4)
		}
		var sv, sc []int
		for i := range vars {
			if mask&(1<<(i%8)) != 0 {
				sv = append(sv, vars[i])
				sc = append(sc, card[i])
			}
		}
		p := MustNew(vars, card)
		q := MustNew(sv, sc)
		for i := range p.Data {
			p.Data[i] = rng.Float64()
			if rng.Intn(16) == 0 {
				p.Data[i] = 0
			}
		}
		for i := range q.Data {
			q.Data[i] = rng.Float64()
			if rng.Intn(8) == 0 {
				q.Data[i] = 0
			}
		}
		size := len(p.Data)
		lo := int(rawLo) % (size + 1)
		hi := lo + int(rawHi)%(size-lo+1)

		bits := func(a, b []float64, name string) {
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s: entry %d blocked %v scalar %v (vars %v card %v sub %v range [%d,%d))",
						name, i, a[i], b[i], vars, card, sv, lo, hi)
				}
			}
		}

		w1, w2 := p.Clone(), p.Clone()
		if err := w1.MulRange(q, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := w2.MulRangeScalar(q, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(w1.Data, w2.Data, "multiply")

		w1, w2 = p.Clone(), p.Clone()
		if err := w1.DivRange(q, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := w2.DivRangeScalar(q, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(w1.Data, w2.Data, "divide")

		d1, d2 := q.CloneZero(), q.CloneZero()
		if err := p.MarginalInto(d1, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := p.MarginalIntoScalar(d2, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(d1.Data, d2.Data, "marginalize")

		d1, d2 = q.CloneZero(), q.CloneZero()
		if err := p.MaxMarginalInto(d1, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := p.MaxMarginalIntoScalar(d2, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(d1.Data, d2.Data, "max-marginalize")

		e1, e2 := p.CloneZero(), p.CloneZero()
		if err := q.ExtendInto(e1, lo, hi); err != nil {
			t.Fatal(err)
		}
		if err := q.ExtendIntoScalar(e2, lo, hi); err != nil {
			t.Fatal(err)
		}
		bits(e1.Data, e2.Data, "extend")

		// Plan forms: one Align built up front serves every kernel, run as
		// two pieces split at a fuzzer-chosen point, and must match the
		// per-call form (and so the scalar reference) bit for bit.
		a, err := NewAlign(vars, card, sv, sc)
		if err != nil {
			t.Fatal(err)
		}
		mid := lo + rng.Intn(hi-lo+1)
		split := func(name string, run func(lo, hi int) error) {
			if err := run(lo, mid); err != nil {
				t.Fatalf("%s [%d,%d): %v", name, lo, mid, err)
			}
			if err := run(mid, hi); err != nil {
				t.Fatalf("%s [%d,%d): %v", name, mid, hi, err)
			}
		}

		w1, w2 = p.Clone(), p.Clone()
		_ = w1.MulRange(q, lo, hi)
		split("aligned multiply", func(l, h int) error { return w2.MulAligned(a, q, l, h) })
		bits(w1.Data, w2.Data, "aligned multiply")

		w1, w2 = p.Clone(), p.Clone()
		_ = w1.DivRange(q, lo, hi)
		split("aligned divide", func(l, h int) error { return w2.DivAligned(a, q, l, h) })
		bits(w1.Data, w2.Data, "aligned divide")

		d1, d2 = q.CloneZero(), q.CloneZero()
		_ = p.MarginalIntoScalar(d1, lo, hi)
		split("aligned marginalize", func(l, h int) error { return p.MarginalAligned(a, d2, l, h) })
		bits(d1.Data, d2.Data, "aligned marginalize")

		d1, d2 = q.CloneZero(), q.CloneZero()
		_ = p.MaxMarginalIntoScalar(d1, lo, hi)
		split("aligned max-marginalize", func(l, h int) error { return p.MaxMarginalAligned(a, d2, l, h) })
		bits(d1.Data, d2.Data, "aligned max-marginalize")

		e1, e2 = p.CloneZero(), p.CloneZero()
		_ = q.ExtendIntoScalar(e1, lo, hi)
		split("aligned extend", func(l, h int) error { return q.ExtendAligned(a, e2, l, h) })
		bits(e1.Data, e2.Data, "aligned extend")

		// A table whose domain differs from the plan's — on either side —
		// must be refused, never paired entry by entry.
		wide := MustNew(append(append([]int(nil), vars...), n), append(append([]int(nil), card...), 2))
		for name, err := range map[string]error{
			"multiply superset":        wide.MulAligned(a, q, 0, 0),
			"multiply subset":          p.MulAligned(a, wide, 0, 0),
			"divide superset":          wide.DivAligned(a, q, 0, 0),
			"marginalize superset":     wide.MarginalAligned(a, q, 0, 0),
			"marginalize subset":       p.MarginalAligned(a, wide, 0, 0),
			"max-marginalize subset":   p.MaxMarginalAligned(a, wide, 0, 0),
			"extend superset":          q.ExtendAligned(a, wide, 0, 0),
			"extend subset":            wide.ExtendAligned(a, p, 0, 0),
			"max-marginalize superset": wide.MaxMarginalAligned(a, q, 0, 0),
		} {
			if err == nil {
				t.Fatalf("%s: table over a foreign domain accepted by plan %v onto %v", name, vars, sv)
			}
		}

		// ArgMaxConsistent: the strided walk must agree with a brute-force
		// scan over every entry (first maximum wins under ties — force ties
		// by quantizing the table).
		for i := range p.Data {
			p.Data[i] = math.Floor(p.Data[i]*4) / 4
		}
		fixed := map[int]int{}
		for i := range vars {
			if rng.Intn(3) == 0 {
				fixed[vars[i]] = rng.Intn(card[i])
			}
		}
		gotI, gotV, err := p.ArgMaxConsistent(fixed)
		if err != nil {
			t.Fatal(err)
		}
		wantI, wantV := -1, 0.0
		states := make([]int, len(vars))
		for i := range p.Data {
			p.assignmentInto(i, states)
			ok := true
			for pos, v := range vars {
				if s, fixedHere := fixed[v]; fixedHere && states[pos] != s {
					ok = false
					break
				}
			}
			if ok && (wantI < 0 || p.Data[i] > wantV) {
				wantI, wantV = i, p.Data[i]
			}
		}
		if gotI != wantI || math.Float64bits(gotV) != math.Float64bits(wantV) {
			t.Fatalf("arg-max: got (%d, %v), brute force (%d, %v) with fixed %v", gotI, gotV, wantI, wantV, fixed)
		}
	})
}
