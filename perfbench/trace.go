package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the benchmark's own code around a call
// into a layer. Spans of one op share Op; Parent indexes the enclosing
// span (-1 for a root).
type span struct {
	Name       string
	Parent     int
	Op         int64
	Start, End time.Duration // since the tracer started
}

// tracer records spans in memory; they are written out when the run
// ends. A nil tracer records nothing, so untraced runs pay one nil check
// per would-be span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, op int64, f func()) time.Duration {
	id := t.begin(name, parent, op)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns, per span, its duration minus the time its direct
// children cover (children of one span do not overlap in this code).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write saves every span as one CSV line: id, parent, op, name, start
// and end in nanoseconds.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.Parent, s.Op, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints, per span name, the count and the median total and
// self time: the table the per-layer metrics are read from.
func (t *tracer) summary(w io.Writer) {
	self := t.selfTimes()
	type agg struct{ total, self []time.Duration }
	byName := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.total = append(a.total, s.End-s.Start)
		a.self = append(a.self, self[i])
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %9s %14s %14s\n", "span", "count", "median", "median self")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-28s %9d %14v %14v\n", n, len(a.total), median(a.total), median(a.self))
	}
}
