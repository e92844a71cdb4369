package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestPlanSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.bif, b.bif) {
			t.Errorf("%s: same seed, different BIF", w.name)
		}
		if !reflect.DeepEqual(a.seq, b.seq) || !reflect.DeepEqual(a.warmup, b.warmup) || !reflect.DeepEqual(a.probe, b.probe) {
			t.Errorf("%s: same seed, different requests", w.name)
		}
		c, err := makePlan(w, 12)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.bif, c.bif) {
			t.Errorf("%s: seeds 11 and 12 gave the same BIF", w.name)
		}
		if reflect.DeepEqual(a.seq, c.seq) {
			t.Errorf("%s: seeds 11 and 12 gave the same requests", w.name)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	for _, w := range workloads {
		p, err := makePlan(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.seq) != w.requests {
			t.Errorf("%s: %d requests, want %d", w.name, len(p.seq), w.requests)
		}
		keys := map[string]bool{}
		mpe := 0
		for i, q := range p.seq {
			keys[evidenceKey(q.Evidence)] = true
			if n := len(q.Evidence); n < w.evMin || n > w.evMax {
				t.Errorf("%s: request %d observes %d variables", w.name, i, n)
			}
			if q.MPE {
				mpe++
				continue
			}
			if len(q.Targets) != w.targets {
				t.Errorf("%s: request %d asks %d targets", w.name, i, len(q.Targets))
			}
			for _, v := range q.Targets {
				if _, observed := q.Evidence[v]; observed {
					t.Errorf("%s: request %d asks for observed %s", w.name, i, v)
				}
			}
		}
		switch {
		case w.hotSet > 0 && len(keys) > w.hotSet:
			t.Errorf("%s: %d evidence configurations, hot set is %d", w.name, len(keys), w.hotSet)
		case w.hotSet == 0 && len(keys) != len(p.seq):
			t.Errorf("%s: %d distinct evidence maps in %d requests", w.name, len(keys), len(p.seq))
		}
		if w.mpeEvery > 0 && mpe != w.requests/w.mpeEvery {
			t.Errorf("%s: %d MPE requests, want %d", w.name, mpe, w.requests/w.mpeEvery)
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{100, 0.90, 90, true},
		{99, 0.90, 0, false},
		{999, 0.99, 0, false},
		{1000, 0.99, 990, true},
		{19, 0.50, 0, false},
		{20, 0.50, 10, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestParseProc(t *testing.T) {
	stat := []byte("4242 (ev serve) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 9 0 100 1000 200 0\n")
	ticks, err := parseStatCPU(stat)
	if err != nil || ticks != 1290 {
		t.Fatalf("parseStatCPU = %d, %v; want 1290", ticks, err)
	}
	if _, err := parseStatCPU([]byte("4242 (evserve S 1")); err == nil {
		t.Error("parseStatCPU accepted a stat line without ')'")
	}
	status := []byte("Name:\tevserve\nVmPeak:\t  900000 kB\nVmHWM:\t  153404 kB\nVmRSS:\t  120000 kB\n")
	if v, err := parseKB(status, "VmHWM"); err != nil || v != 153404 {
		t.Errorf("VmHWM = %d, %v", v, err)
	}
	if v, err := parseKB(status, "VmRSS"); err != nil || v != 120000 {
		t.Errorf("VmRSS = %d, %v", v, err)
	}
	meminfo := []byte("MemTotal:        8221696 kB\nMemFree:         7340032 kB\nMemAvailable:    7751680 kB\n")
	if v, err := parseKB(meminfo, "MemAvailable"); err != nil || v != 7751680 {
		t.Errorf("MemAvailable = %d, %v", v, err)
	}
	if _, err := parseKB(meminfo, "SwapTotal"); err == nil {
		t.Error("parseKB found a missing key")
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100]: children [10,30] and [20,50] overlap, [90,120] runs past
	// the root's end; [10,30] has a child [15,20].
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 0, Start: 90, End: 120},
		{ID: 4, Parent: 1, Start: 15, End: 20},
	}
	want := map[int32]int64{0: 100 - 40 - 10, 1: 20 - 5, 2: 30, 3: 30, 4: 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestListenAddr(t *testing.T) {
	line := `time=2026-01-02T03:04:05Z level=INFO msg="evserve: listening" models=1 addr=127.0.0.1:41231`
	if a := listenAddr(line); a != "127.0.0.1:41231" {
		t.Errorf("listenAddr = %q", a)
	}
	if a := listenAddr(`level=INFO msg="evserve: draining" addr=127.0.0.1:1`); a != "" {
		t.Errorf("listenAddr matched a non-listening line: %q", a)
	}
}

func TestCompare(t *testing.T) {
	q := request{Targets: []string{"A"}}
	want := answer{PEvidence: 0.25, Posteriors: map[string][]float64{"A": {0.3, 0.7}}}
	if err := compare(q, want, answer{PEvidence: 0.25 * (1 + 1e-12), Posteriors: map[string][]float64{"A": {0.3 + 1e-12, 0.7}}}, 1e-9); err != nil {
		t.Errorf("rounding-level difference rejected: %v", err)
	}
	if err := compare(q, want, answer{PEvidence: 0.25, Posteriors: map[string][]float64{"A": {0.31, 0.69}}}, 1e-9); err == nil {
		t.Error("wrong posterior accepted")
	}
	m := request{MPE: true}
	wm := answer{Assignment: map[string]int{"A": 1, "B": 0}, Probability: 0.4}
	if err := compare(m, wm, answer{Assignment: map[string]int{"A": 1, "B": 1}, Probability: 0.4}, 1e-9); err == nil {
		t.Error("wrong MPE assignment accepted")
	}
}
