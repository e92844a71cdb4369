package main

import (
	"bytes"
	"fmt"
	"math"

	"evprop"
	evclient "evprop/client"
)

// answer is what the server returned for one request, or what the
// reference engine says it should return.
type answer struct {
	PEvidence   float64
	Posteriors  map[string][]float64
	Assignment  map[string]int
	Probability float64
}

// reference answers requests with a serial-scheduler engine compiled in
// process from the same BIF text the server loads, with no result cache.
// Parallel schedulers combine partitioned pieces in completion order, so
// their answers agree with it to rounding, not bit for bit.
type reference struct {
	eng  *evprop.Engine
	memo map[string]map[string][]float64 // evidence key -> every posterior
}

func newReference(bifText []byte) (*reference, error) {
	net, _, err := evprop.ParseBIF(bytes.NewReader(bifText))
	if err != nil {
		return nil, fmt.Errorf("reference parse: %w", err)
	}
	eng, err := net.Compile(evprop.Options{Scheduler: evprop.SchedulerSerial, DisableFlightRecorder: true})
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	return &reference{eng: eng, memo: map[string]map[string][]float64{}}, nil
}

func (r *reference) close() { r.eng.Close() }

// expect computes the correct answer to req.
func (r *reference) expect(req request) (answer, error) {
	res, err := r.eng.Propagate(evprop.Evidence(req.Evidence))
	if err != nil {
		return answer{}, err
	}
	defer res.Close()
	a := answer{PEvidence: res.ProbabilityOfEvidence()}
	if req.MPE {
		a.Assignment, a.Probability, err = res.MPE()
		return a, err
	}
	key := evidenceKey(req.Evidence)
	all, ok := r.memo[key]
	if !ok {
		if all, err = res.Posteriors(); err != nil {
			return answer{}, err
		}
		r.memo[key] = all
	}
	a.Posteriors = make(map[string][]float64, len(req.Targets))
	for _, t := range req.Targets {
		a.Posteriors[t] = all[t]
	}
	return a, nil
}

// expectAll computes the answer to every request.
func (r *reference) expectAll(reqs []request) ([]answer, error) {
	out := make([]answer, len(reqs))
	for i, q := range reqs {
		a, err := r.expect(q)
		if err != nil {
			return nil, fmt.Errorf("reference answer %d: %w", i, err)
		}
		out[i] = a
	}
	return out, nil
}

// compare returns nil when got matches want: posteriors within tol
// absolutely, P(e) and the MPE probability within tol relatively, and the
// MPE assignment exactly.
func compare(req request, want, got answer, tol float64) error {
	if req.MPE {
		if !relClose(want.Probability, got.Probability, tol) {
			return fmt.Errorf("mpe probability %v, want %v", got.Probability, want.Probability)
		}
		if len(got.Assignment) != len(want.Assignment) {
			return fmt.Errorf("mpe assigns %d variables, want %d", len(got.Assignment), len(want.Assignment))
		}
		for k, v := range want.Assignment {
			if got.Assignment[k] != v {
				return fmt.Errorf("mpe %s=%d, want %d", k, got.Assignment[k], v)
			}
		}
		return nil
	}
	if !relClose(want.PEvidence, got.PEvidence, tol) {
		return fmt.Errorf("p_evidence %v, want %v", got.PEvidence, want.PEvidence)
	}
	for _, t := range req.Targets {
		w, g := want.Posteriors[t], got.Posteriors[t]
		if len(g) != len(w) {
			return fmt.Errorf("posterior %s has %d states, want %d", t, len(g), len(w))
		}
		for i := range w {
			if math.Abs(w[i]-g[i]) > tol || math.IsNaN(g[i]) {
				return fmt.Errorf("posterior %s[%d] = %v, want %v", t, i, g[i], w[i])
			}
		}
	}
	return nil
}

func relClose(want, got, tol float64) bool {
	return math.Abs(want-got) <= tol*math.Max(math.Abs(want), math.Abs(got))
}

func queryAnswer(r *evclient.QueryResponse) answer {
	return answer{PEvidence: r.PEvidence, Posteriors: r.Posteriors}
}

func mpeAnswer(r *evclient.MPEResponse) answer {
	return answer{Assignment: r.Assignment, Probability: r.Probability}
}
