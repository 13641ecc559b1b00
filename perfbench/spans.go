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
)

// span is one timed call the benchmark made into a layer of the
// program. Spans live in memory while the run measures and are
// written out when it ends, so writing them costs nothing inside the
// timed window.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Sweep  int    `json:"sweep"`  // one identifier per sweep (pass or served grid)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil *tracer is the untraced mode: every
// method is a no-op, so workload code calls it unconditionally and an
// untraced run pays one nil check per call site.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id; end closes it. Spans are
// appended on close, so a span that never closes is never written.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// end records a span named name that began at start (from begin) and
// returns its id for use as a parent.
func (t *tracer) end(name string, start int64, parent, sweep int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Sweep: sweep, Name: name, Start: start, End: now})
	t.mu.Unlock()
	return id
}

// reserve allocates an id for a span whose children close before it
// does (a sweep and the commits inside it); fill records it later.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Start: -1})
	return len(t.spans)
}

func (t *tracer) fill(id int, name string, start int64, parent, sweep int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1] = span{ID: id, Parent: parent, Sweep: sweep, Name: name, Start: start, End: now}
	t.mu.Unlock()
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes sums, per span name, the span durations minus the part of
// each span's interval its children cover. Children of one parent may
// overlap (commits from two workers), so their covered time is the
// union of their intervals, not the sum.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Start >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Start < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, curS, curE int64
		curS, curE = -1, -1
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				covered += curE - curS
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		covered += curE - curS
		self[s.Name] += s.dur() - time.Duration(covered)
	}
	return self
}

// writeOut stores every span as NDJSON at path and prints the self
// time per span name to w.
func (t *tracer) writeOut(path string, w io.Writer) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if s.Start >= 0 {
			if err := enc.Encode(s); err != nil {
				t.mu.Unlock()
				f.Close()
				return err
			}
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench: %d spans written to %s; self time per span name:\n", n, path)
	for _, name := range names {
		fmt.Fprintf(w, "  %-16s %12.3f ms\n", name, float64(self[name])/1e6)
	}
	return nil
}
