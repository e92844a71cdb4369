package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	evclient "evprop/client"
	"evprop/internal/bayesnet"
	"evprop/internal/bif"
)

// workload is one closed-loop traffic mix. Every round of a run boots a
// fresh evserve and sends the same seeded sequence, so a round's request
// count (and with it the number of distinct cached results, which sets
// peak_rss_mb) is fixed; only the number of rounds depends on speed.
type workload struct {
	name string
	// The network's structure is RandomNetwork(nodes, states, maxParents,
	// netSeed); its CPT values are redrawn from the benchmark seed.
	nodes, states, maxParents int
	netSeed                   int64
	conns                     int // closed-loop connections
	requests                  int // measured requests per round
	warmup                    int // unmeasured requests after set-up (distinct evidence)
	evMin, evMax              int // observed variables per request
	targets                   int // posteriors asked per query
	mpeEvery                  int // every mpeEvery-th request is /mpe (0 = none)
	hotSet                    int // evidence drawn from this many configurations (0 = fresh per request)
}

var workloads = []workload{
	{
		name: "serve-distinct", nodes: 40, states: 2, maxParents: 3, netSeed: 7,
		conns: 2, requests: 1500, warmup: 50, evMin: 3, evMax: 3, targets: 3, mpeEvery: 5,
	},
	{
		name: "serve-hot", nodes: 40, states: 2, maxParents: 3, netSeed: 7,
		conns: 2, requests: 4000, evMin: 3, evMax: 3, targets: 3, hotSet: 32,
	},
	{
		name: "paper-wide", nodes: 60, states: 2, maxParents: 5, netSeed: 3,
		conns: 1, requests: 32, warmup: 2, evMin: 2, evMax: 3, targets: 3,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// request is one call: a posterior query for Targets, or an MPE.
type request struct {
	Evidence evclient.Evidence
	Targets  []string
	MPE      bool
}

// plan is everything a run sends, generated from the seed alone: the model
// the server loads and the probe, warm-up and measured requests.
type plan struct {
	w      workload
	model  string
	bif    []byte
	vars   []string
	probe  request
	warmup []request
	seq    []request
}

// makePlan generates a workload's inputs. The same (workload, seed) always
// yields byte-identical BIF text and request sequences.
func makePlan(w workload, seed int64) (*plan, error) {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))

	shape := bayesnet.RandomNetwork(w.nodes, w.states, w.maxParents, w.netSeed)
	net := bayesnet.New()
	for _, n := range shape.Nodes {
		rows := 1
		for _, p := range n.Parents {
			rows *= shape.Nodes[p].Card
		}
		dist := make([]float64, rows*n.Card)
		for r := 0; r < rows; r++ {
			row := dist[r*n.Card : (r+1)*n.Card]
			sum := 0.0
			for s := range row {
				row[s] = 0.05 + rng.Float64()
				sum += row[s]
			}
			for s := range row {
				row[s] /= sum
			}
		}
		if _, err := net.AddNode(n.Name, n.Card, n.Parents, dist); err != nil {
			return nil, err
		}
	}
	p := &plan{w: w, model: fmt.Sprintf("rn%d", w.nodes)}
	var buf bytes.Buffer
	if err := bif.Write(&buf, net, p.model, nil); err != nil {
		return nil, err
	}
	p.bif = buf.Bytes()
	for _, n := range net.Nodes {
		p.vars = append(p.vars, n.Name)
	}

	seen := map[string]bool{}
	fresh := func() evclient.Evidence {
		for {
			k := w.evMin + rng.Intn(w.evMax-w.evMin+1)
			ev := evclient.Evidence{}
			for _, i := range rng.Perm(len(p.vars))[:k] {
				ev[p.vars[i]] = rng.Intn(w.states)
			}
			if key := evidenceKey(ev); !seen[key] {
				seen[key] = true
				return ev
			}
		}
	}
	query := func(ev evclient.Evidence) request {
		var t []string
		for _, i := range rng.Perm(len(p.vars)) {
			if _, observed := ev[p.vars[i]]; !observed {
				t = append(t, p.vars[i])
			}
			if len(t) == w.targets {
				break
			}
		}
		return request{Evidence: ev, Targets: t}
	}
	// The probe observes nothing, so it never shares a cache entry with
	// the sequence (which always observes at least evMin variables).
	p.probe = request{Evidence: evclient.Evidence{}, Targets: p.vars[:w.targets]}
	seen[evidenceKey(p.probe.Evidence)] = true

	if w.hotSet > 0 {
		hot := make([]evclient.Evidence, w.hotSet)
		for i := range hot {
			hot[i] = fresh()
			p.warmup = append(p.warmup, query(hot[i]))
		}
		for i := 0; i < w.requests; i++ {
			p.seq = append(p.seq, query(hot[rng.Intn(len(hot))]))
		}
		return p, nil
	}
	for i := 0; i < w.warmup; i++ {
		p.warmup = append(p.warmup, query(fresh()))
	}
	for i := 0; i < w.requests; i++ {
		r := query(fresh())
		if w.mpeEvery > 0 && i%w.mpeEvery == w.mpeEvery-1 {
			r = request{Evidence: r.Evidence, MPE: true}
		}
		p.seq = append(p.seq, r)
	}
	return p, nil
}

// evidenceKey is a canonical text form of an evidence map.
func evidenceKey(ev evclient.Evidence) string {
	names := make([]string, 0, len(ev))
	for k := range ev {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(ev[k]))
		b.WriteByte(';')
	}
	return b.String()
}
