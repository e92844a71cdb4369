package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	evclient "evprop/client"
)

// outcome is one measured request as the client saw it.
type outcome struct {
	sent bool
	lat  time.Duration
	got  answer
	err  error
}

// modelCounters are the /v1/models/{name}/stats fields the replay is
// checked against.
type modelCounters struct {
	Propagations int64 `json:"propagations"`
	Cache        struct {
		Capacity  int   `json:"capacity"`
		Entries   int   `json:"entries"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Collapsed int64 `json:"collapsed"`
	} `json:"cache"`
}

// serverView is what a round learns about the server it drove: the
// configuration the in-process replay mirrors and the model's counters
// before and after the measured sequence.
type serverView struct {
	workers     int
	scheduler   string
	lazy        bool
	compileUsec float64
	before      modelCounters
	after       modelCounters
}

// round is one boot of evserve followed by the plan's warm-up and measured
// sequence.
type round struct {
	setup    time.Duration
	wall     time.Duration // measured phase
	cpuSec   float64       // server CPU over the measured phase
	hwmKB    int64         // server VmHWM at the end of the round
	outcomes []outcome
	memErr   error // set when the watchdog stopped the round
	// reqBytes and respBytes are HTTP body bytes over the measured phase
	// (counted on traced rounds only).
	reqBytes, respBytes int64
	view                *serverView
}

// bench holds what every round of a run shares.
type bench struct {
	plan      *plan
	evserve   string
	modelsDir string
	tol       float64
	limitKB   int64
	floorKB   int64
	wantProbe answer
	wantWarm  []answer
	wantSeq   []answer
}

// runRound boots a server and drives one round. When spans is non-nil the
// measured requests are traced and request/response bytes are counted.
func (b *bench) runRound(ctx context.Context, spans *spanLog, bytesSeen *byteCounter) (*round, error) {
	p := b.plan
	start := time.Now()
	srv, err := startServer(b.evserve, b.modelsDir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	tr := &http.Transport{MaxIdleConnsPerHost: p.w.conns + 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	var rt http.RoundTripper = tr
	if bytesSeen != nil {
		rt = &countingTransport{next: tr, c: bytesSeen}
	}
	c := evclient.New(srv.url(), evclient.WithHTTPClient(&http.Client{Transport: rt}))

	r := &round{}
	// Set-up ends at the first correct answer on the workload's model.
	for {
		got, err := send(ctx, c, p.model, p.probe)
		if err == nil {
			if err := compare(p.probe, b.wantProbe, got, b.tol); err != nil {
				return nil, fmt.Errorf("set-up probe: wrong answer: %w", err)
			}
			break
		}
		select {
		case <-srv.exited:
			return nil, fmt.Errorf("evserve exited during set-up: %s", srv.out.tail())
		default:
		}
		if time.Since(start) > 60*time.Second {
			return nil, fmt.Errorf("no answer within 60s of boot: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	r.setup = time.Since(start)

	for i, q := range p.warmup {
		got, err := send(ctx, c, p.model, q)
		if err == nil {
			err = compare(q, b.wantWarm[i], got, b.tol)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}

	// Every round reads the server's view, traced or not, so both kinds
	// of round have the same shape.
	if r.view, err = readServerView(ctx, c, p.model); err != nil {
		return nil, err
	}
	wd := startWatchdog(srv, b.limitKB, b.floorKB)
	cpu0, err := procCPUSeconds(srv.pid())
	if err != nil {
		wd.stop() //nolint:errcheck // the CPU read failure is reported
		return nil, err
	}
	if bytesSeen != nil {
		bytesSeen.req.Store(0)
		bytesSeen.resp.Store(0)
	}
	t0 := time.Now()
	r.outcomes = drive(ctx, c, p, spans, wd)
	r.wall = time.Since(t0)
	if bytesSeen != nil {
		r.reqBytes, r.respBytes = bytesSeen.req.Load(), bytesSeen.resp.Load()
	}
	cpu1, cerr := procCPUSeconds(srv.pid())
	hwm, herr := procStatusKB(srv.pid(), "VmHWM")
	if r.memErr = wd.stop(); r.memErr != nil {
		return r, nil
	}
	if err := errors.Join(cerr, herr); err != nil {
		return nil, fmt.Errorf("read evserve /proc: %w", err)
	}
	r.cpuSec, r.hwmKB = cpu1-cpu0, hwm
	if err := getJSON(ctx, c, "/v1/models/"+p.model+"/stats", &r.view.after); err != nil {
		return nil, err
	}
	return r, nil
}

// drive sends the measured sequence over p.w.conns closed-loop
// connections: each sends its next request only after the previous reply.
func drive(ctx context.Context, c *evclient.Client, p *plan, spans *spanLog, wd *watchdog) []outcome {
	out := make([]outcome, len(p.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < p.w.conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.seq) || wd.tripped.Load() {
					return
				}
				var sp spanTimer
				if spans != nil {
					sp = spans.start("http.request", int32(i), -1)
				}
				t := time.Now()
				got, err := send(ctx, c, p.model, p.seq[i])
				lat := time.Since(t)
				if spans != nil {
					sp.end()
				}
				out[i] = outcome{sent: true, lat: lat, got: got, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

func send(ctx context.Context, c *evclient.Client, model string, q request) (answer, error) {
	if q.MPE {
		r, err := c.MPE(ctx, model, q.Evidence)
		if err != nil {
			return answer{}, err
		}
		return mpeAnswer(r), nil
	}
	r, err := c.Query(ctx, model, q.Evidence, q.Targets...)
	if err != nil {
		return answer{}, err
	}
	return queryAnswer(r), nil
}

// readServerView records the configuration the replay mirrors and the
// model's counters before the measured sequence.
func readServerView(ctx context.Context, c *evclient.Client, model string) (*serverView, error) {
	st, err := c.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("read /v1/stats: %w", err)
	}
	v := &serverView{workers: st.Workers, scheduler: st.Scheduler}
	if err := getJSON(ctx, c, "/v1/models/"+model+"/stats", &v.before); err != nil {
		return nil, err
	}
	models, err := c.Models(ctx)
	if err != nil {
		return nil, fmt.Errorf("read /v1/models: %w", err)
	}
	for _, m := range models {
		if m.Name == model {
			v.compileUsec = m.CompileUsec
		}
	}
	fr, err := c.FlightRecorder(ctx, evclient.FlightRecorderQuery{Model: model})
	if err != nil {
		return nil, fmt.Errorf("read flight recorder: %w", err)
	}
	for _, rec := range fr.Records {
		if !rec.Cached {
			v.lazy = rec.Lazy
			break
		}
	}
	return v, nil
}

func getJSON(ctx context.Context, c *evclient.Client, path string, out any) error {
	raw, err := c.Raw(ctx, path)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	return nil
}

// byteCounter totals HTTP request and response body bytes.
type byteCounter struct{ req, resp atomic.Int64 }

type countingTransport struct {
	next http.RoundTripper
	c    *byteCounter
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		t.c.req.Add(r.ContentLength)
	}
	resp, err := t.next.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.c.resp}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
