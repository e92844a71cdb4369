package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is -1 for a request's root span.
type span struct {
	ID, Parent, Req int32
	Name            string
	Start, End      int64 // ns since the log's epoch
	Miss            bool  // the call propagated (no result-cache hit)
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps spans in memory; they are written out when the run ends.
type spanLog struct {
	epoch time.Time
	next  atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// spanTimer is an open span; end records it.
type spanTimer struct {
	l *spanLog
	s span
}

func (l *spanLog) start(name string, req, parent int32) spanTimer {
	return spanTimer{l: l, s: span{
		ID: l.next.Add(1) - 1, Parent: parent, Req: req, Name: name,
		Start: l.now(),
	}}
}

// now is the log's clock: ns since its epoch.
func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// addAll records finished spans, giving each a fresh ID.
func (l *spanLog) addAll(spans []span) {
	for i := range spans {
		spans[i].ID = l.next.Add(1) - 1
	}
	l.mu.Lock()
	l.spans = append(l.spans, spans...)
	l.mu.Unlock()
}

// id is the open span's ID, for its children.
func (t *spanTimer) id() int32 { return t.s.ID }

// miss marks the span as a call that propagated.
func (t *spanTimer) miss() { t.s.Miss = true }

// end closes and records the span, returning its duration.
func (t *spanTimer) end() time.Duration {
	t.s.End = t.l.now()
	t.l.mu.Lock()
	t.l.spans = append(t.l.spans, t.s)
	t.l.mu.Unlock()
	return time.Duration(t.s.dur())
}

// snapshot returns the recorded spans.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover. Children may overlap
// each other (tasks on parallel workers); covered time is counted once.
func selfTimes(spans []span) map[int32]int64 {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes spans as tab-separated lines, ordered by start time:
// id, parent, request, name, start ns, end ns, self ns, miss.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\tmiss")
	for _, s := range sorted {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%t\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End, self[s.ID], s.Miss)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
