// Command perfbench is the repository's benchmark. It boots the evserve
// binary with its default flags and drives one workload through evclient
// over loopback in closed loops, checking every answer against an
// in-process serial reference engine. With -trace 1 it instead replays the
// same seeded sequence down the stack in process and reports per-layer
// metrics.
//
// Run it through perfbench/run.sh from the root of a checkout, which builds
// both binaries first:
//
//	bash perfbench/run.sh --workload serve-distinct --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Any wrong answer, failed request or tripped memory
// watchdog makes the exit status non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// minRounds is the fewest server boots a measured run makes. Half of them
// must hold the 100 samples latency_p90_ms needs on paper-wide (32
// requests a round).
const minRounds = 8

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	evserve  string
	outDir   string
	root     string
	tol      float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated model and requests")
	flag.IntVar(&o.seconds, "seconds", 20, "how long a measured run keeps starting rounds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics over HTTP; 1: traced per-layer replay")
	flag.StringVar(&o.evserve, "evserve", "", "path of the evserve binary")
	flag.StringVar(&o.outDir, "out", "", "directory for generated models and span files")
	flag.StringVar(&o.root, "root", ".", "root of the checkout being measured")
	flag.Float64Var(&o.tol, "tol", 1e-9, "answer tolerance: absolute on posteriors, relative on P(e) and MPE probability")
	flag.Parse()
	res, err := run(o)
	if res != nil {
		b, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload. It returns a result whenever requests were
// attempted, and an error whenever the run must not count as correct.
func run(o options) (*result, error) {
	if o.evserve == "" || o.outDir == "" {
		return nil, fmt.Errorf("-evserve and -out are required (use perfbench/run.sh)")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	p, err := makePlan(w, o.seed)
	if err != nil {
		return nil, err
	}
	sig, err := json.Marshal(readHostSignature(o.root))
	if err != nil {
		return nil, err
	}
	fmt.Printf("host: %s\n", sig)
	fmt.Printf("workload: %s seed=%d connections=%d requests/round=%d model=%s\n", w.name, o.seed, w.conns, len(p.seq), p.model)

	b := &bench{plan: p, evserve: o.evserve, modelsDir: filepath.Join(o.outDir, "models-"+w.name), tol: o.tol}
	if b.limitKB, b.floorKB, err = memoryLimits(); err != nil {
		return nil, err
	}
	if err := writeModels(b.modelsDir, p); err != nil {
		return nil, err
	}
	ref, err := newReference(p.bif)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	if b.wantProbe, err = ref.expect(p.probe); err != nil {
		return nil, err
	}
	if b.wantWarm, err = ref.expectAll(p.warmup); err != nil {
		return nil, err
	}
	if b.wantSeq, err = ref.expectAll(p.seq); err != nil {
		return nil, err
	}

	// Collect the reference's garbage now rather than during a round.
	runtime.GC()
	ctx := context.Background()
	if o.trace == 1 {
		return runTraced(ctx, b, o)
	}
	return runMeasured(ctx, b, time.Duration(o.seconds)*time.Second)
}

// tally scores a round's outcomes against the reference answers.
type tally struct {
	attempted, failed, unsent int
	firstErr                  error
	lat                       []float64 // ms, successful requests
}

func (b *bench) score(r *round) tally {
	var t tally
	for i, oc := range r.outcomes {
		t.attempted++
		err := oc.err
		switch {
		case !oc.sent:
			t.unsent++
			err = fmt.Errorf("request %d not sent: %v", i, r.memErr)
		case err == nil:
			if err = compare(b.plan.seq[i], b.wantSeq[i], oc.got, b.tol); err != nil {
				err = fmt.Errorf("request %d: wrong answer: %w", i, err)
			}
		default:
			err = fmt.Errorf("request %d: %w", i, err)
		}
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
			continue
		}
		t.lat = append(t.lat, float64(oc.lat)/1e6)
	}
	return t
}

// runMeasured boots fresh servers round after round until the time is up
// (and at least minRounds have run), then reports the end-to-end metrics.
func runMeasured(ctx context.Context, b *bench, d time.Duration) (*result, error) {
	type measured struct {
		qps, cpuSec, ok float64
		lat             []float64
	}
	deadline := time.Now().Add(d)
	var setups, rss []float64
	var rounds []measured
	res := &result{Metrics: map[string]metric{}}
	var firstErr error
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		r, err := b.runRound(ctx, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		t := b.score(r)
		res.Attempted += t.attempted
		res.Failed += t.failed
		if firstErr == nil {
			firstErr = t.firstErr
		}
		if r.memErr != nil {
			firstErr = fmt.Errorf("round %d stopped by the memory watchdog (%d requests unsent): %w", n, t.unsent, r.memErr)
			break
		}
		ok := float64(len(t.lat))
		setups = append(setups, r.setup.Seconds())
		rss = append(rss, float64(r.hwmKB)/1024)
		rounds = append(rounds, measured{qps: ok / r.wall.Seconds(), cpuSec: r.cpuSec, ok: ok, lat: t.lat})
		fmt.Printf("round %d: setup %.1f ms, %d ok / %d, %.0f req/s, server cpu %.3f ms/req, VmHWM %.1f MB\n",
			n, r.setup.Seconds()*1e3, len(t.lat), t.attempted, ok/r.wall.Seconds(), r.cpuSec*1e3/ok, float64(r.hwmKB)/1024)
	}
	failedShare := float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Correct = res.Failed == 0 && firstErr == nil

	// Other tenants of a shared host only ever slow a round down, in
	// phases lasting seconds, so the faster half of the rounds is the
	// steadiest estimate of the undisturbed server: throughput, latency
	// and CPU come from it. Set-up and peak RSS use every round.
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].qps > rounds[j].qps })
	rounds = rounds[:(len(rounds)+1)/2]
	var qps, lat []float64
	var cpuSec, okTotal float64
	for _, r := range rounds {
		qps = append(qps, r.qps)
		lat = append(lat, r.lat...)
		// CPU time is summed over rounds: one round holds too few clock
		// ticks to resolve a per-request figure on the fast workloads.
		cpuSec += r.cpuSec
		okTotal += r.ok
	}
	if len(rounds) > 0 {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["qps"] = metric{median(qps), "req/s"}
		res.Metrics["cpu_ms_per_req"] = metric{cpuSec * 1e3 / okTotal, "ms"}
		res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	}
	for _, pc := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		v, ok := percentile(lat, pc.q)
		if !ok {
			fmt.Printf("%s withheld: %d samples leave fewer than %d beyond it\n", pc.name, len(lat), minTail)
			continue
		}
		if pc.name == "latency_p99_ms" {
			// Printed, not gated: only the traffic workloads reach the
			// 1000 samples it needs, so it is not in every result.
			fmt.Printf("metric latency_p99_ms %.4f ms (%d samples)\n", v, len(lat))
			continue
		}
		res.Metrics[pc.name] = metric{v, "ms"}
	}
	for _, name := range []string{"setup_s", "qps", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_req", "peak_rss_mb"} {
		if m, ok := res.Metrics[name]; ok {
			fmt.Printf("metric %s %.4f %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Printf("metric failed_share %.4f fraction (%d of %d attempted)\n", failedShare, res.Failed, res.Attempted)
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}
