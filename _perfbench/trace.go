package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"keyedeq/internal/obs"
)

// span is one traced call.  Spans of one request (or one batch) share
// Trace; Parent is the ID of the span that caused this one, 0 for a
// root.  Times are nanoseconds since the tracer started.
type span struct {
	Trace  int64            `json:"trace"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Phase  string           `json:"phase"`
	Family string           `json:"family,omitempty"`
	Start  int64            `json:"start_ns"`
	Dur    int64            `json:"dur_ns"`
	Self   int64            `json:"self_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) end() int64 { return s.Start + s.Dur }

// tracer keeps spans in memory; they are written out only when the run
// ends, so file I/O never lands inside a measured call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

// add records sp, assigning and returning its ID.
func (t *tracer) add(sp span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	sp.ID = t.next
	t.spans = append(t.spans, sp)
	return sp.ID
}

// spanDur returns the duration of the span with the given ID.
func (t *tracer) spanDur(id int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Dur
}

// setAttr sets an attribute of the span with the given ID.
func (t *tracer) setAttr(id int64, key string, v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]int64)
	}
	sp.Attrs[key] = v
}

// timed runs fn and records it as a span.
func (t *tracer) timed(trace, parent int64, name, phase, family string, fn func()) int64 {
	start := time.Now()
	fn()
	return t.add(span{Trace: trace, Parent: parent, Name: name, Phase: phase, Family: family,
		Start: t.at(start), Dur: time.Since(start).Nanoseconds()})
}

// addProgram records spans the program emitted into an obs sink as
// children of parent.  The program's stage names (canonicalize,
// freeze_chase, plan, search, verify) are kept as they are.
func (t *tracer) addProgram(trace, parent int64, phase, family string, sps []*obs.Span) {
	for _, sp := range sps {
		attrs := make(map[string]int64, len(sp.Attrs))
		for _, a := range sp.Attrs {
			if a.Str == "" {
				attrs[a.Key] = a.Int
			}
		}
		t.add(span{Trace: trace, Parent: parent, Name: sp.Stage, Phase: phase, Family: family,
			Start: t.at(sp.Start), Dur: sp.DurNs, Attrs: attrs})
	}
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	return t.spans
}

// selfTimes sets each span's Self: its duration minus the part of its
// interval that its children cover.  Children that ran outside the
// parent's interval (the benchmark's replay of a daemon request's
// layers runs after the request) subtract nothing.
func selfTimes(spans []span) {
	kids := make(map[int64][][2]int64)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], [2]int64{spans[i].Start, spans[i].end()})
		}
	}
	for i := range spans {
		sp := &spans[i]
		sp.Self = sp.Dur - covered(sp.Start, sp.end(), kids[sp.ID])
	}
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, reach int64 = 0, lo
	for _, iv := range clipped {
		a := max(iv[0], reach)
		if iv[1] > a {
			total += iv[1] - a
			reach = iv[1]
		}
	}
	return total
}

// writeTrace writes the spans as JSON lines to path.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints, per span name, the count and the total and
// median self time, so the trace's cost split can be read without
// opening the file.
func printSelfTimes(w io.Writer, spans []span) {
	self := make(map[string][]float64)
	for i := range spans {
		self[spans[i].Name] = append(self[spans[i].Name], float64(spans[i].Self)/1e3)
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var sum float64
		for _, v := range self[n] {
			sum += v
		}
		fmt.Fprintf(w, "perfbench: self %-24s n=%-7d total_ms=%.3f median_us=%.3f\n",
			n, len(self[n]), sum/1e3, median(self[n]))
	}
}
