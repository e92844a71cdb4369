package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one evserve process booted with its default flags; only the
// listen address and the models directory are set.
type server struct {
	cmd    *exec.Cmd
	out    *logWatch
	exited chan struct{}
	addr   string
}

// startServer execs evserve and waits until it logs its listen address.
func startServer(bin, modelsDir string) (*server, error) {
	s := &server{out: &logWatch{addr: make(chan string, 1)}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-models-dir", modelsDir)
	s.cmd.Stdout = s.out
	s.cmd.Stderr = s.out
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start evserve: %w", err)
	}
	go func() {
		s.cmd.Wait() //nolint:errcheck // exit status is reported through s.out
		close(s.exited)
	}()
	select {
	case s.addr = <-s.out.addr:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("evserve exited during start-up: %s", s.out.tail())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("evserve did not listen within 60s: %s", s.out.tail())
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) url() string { return "http://" + s.addr }

// stop ends the server, gracefully if it drains within five seconds, and
// returns once the process has exited.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-s.exited
}

// logWatch receives evserve's log output: it reports the listen address
// from the start-up line and keeps only the last few KiB for diagnostics.
type logWatch struct {
	mu      sync.Mutex
	addr    chan string
	found   bool
	partial []byte
	last    []byte
}

const logTailBytes = 4096

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.found {
		l.partial = append(l.partial, p...)
		for {
			i := bytes.IndexByte(l.partial, '\n')
			if i < 0 {
				break
			}
			line := string(l.partial[:i])
			l.partial = l.partial[i+1:]
			if a := listenAddr(line); a != "" {
				l.found = true
				l.partial = nil
				l.addr <- a
				break
			}
		}
	}
	l.last = append(l.last, p...)
	if len(l.last) > 2*logTailBytes {
		l.last = append([]byte(nil), l.last[len(l.last)-logTailBytes:]...)
	}
	return len(p), nil
}

func (l *logWatch) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.last
	if len(t) > logTailBytes {
		t = t[len(t)-logTailBytes:]
	}
	return strings.TrimSpace(string(t))
}

// listenAddr extracts addr=host:port from evserve's "listening" log line.
func listenAddr(line string) string {
	if !strings.Contains(line, "evserve: listening") {
		return ""
	}
	for _, f := range strings.Fields(line) {
		if a, ok := strings.CutPrefix(f, "addr="); ok {
			return strings.Trim(a, `"`)
		}
	}
	return ""
}

// watchdog samples the server's resident set while a round runs. When the
// server's RSS passes limitKB, or the host's available memory falls below
// floorKB, it kills the server, so a memory regression fails the run
// instead of starving the host.
type watchdog struct {
	tripped atomic.Bool
	reason  atomic.Value // string
	stopc   chan struct{}
	done    chan struct{}
}

// memoryLimits returns the RSS ceiling (half the host's memory) and the
// host available-memory floor (5% of it), in kB.
func memoryLimits() (limitKB, floorKB int64, err error) {
	total, err := meminfoKB("MemTotal")
	if err != nil {
		return 0, 0, err
	}
	return total / 2, total / 20, nil
}

func startWatchdog(s *server, limitKB, floorKB int64) *watchdog {
	w := &watchdog{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			rss, err := procStatusKB(s.pid(), "VmRSS")
			avail, aerr := meminfoKB("MemAvailable")
			switch {
			case err == nil && rss > limitKB:
				w.trip(s, fmt.Sprintf("evserve RSS %d MB passed the %d MB limit", rss>>10, limitKB>>10))
				return
			case aerr == nil && avail < floorKB:
				w.trip(s, fmt.Sprintf("host available memory %d MB fell below %d MB", avail>>10, floorKB>>10))
				return
			}
			select {
			case <-w.stopc:
				return
			case <-s.exited:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *watchdog) trip(s *server, why string) {
	w.reason.Store(why)
	w.tripped.Store(true)
	s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
}

// stop ends sampling and returns the trip reason, or nil.
func (w *watchdog) stop() error {
	close(w.stopc)
	<-w.done
	if w.tripped.Load() {
		return errors.New(w.reason.Load().(string))
	}
	return nil
}

// writeModels writes the plan's BIF as the only file of a fresh models
// directory.
func writeModels(dir string, p *plan) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+p.model+".bif", p.bif, 0o644)
}
