// Package telemetry is the repo's zero-dependency observability kernel:
// a metrics registry (atomic counters, float gauges, fixed-bucket latency
// histograms) with Prometheus text exposition, plus lightweight per-request
// tracing (trace IDs propagated across cluster forwards, a span tree
// attributing a request to queue/coalesce-wait/build/extend/forward/
// serialize spans).
//
// # Hot-path contract
//
// Recording is lock-free and allocation-free: Counter.Add and Gauge.Set are
// single atomic operations, Histogram.Observe is a bounded linear scan over
// the bucket bounds plus two atomics, and Trace.AddSpan claims one slot of
// a fixed arena (a trace's first six spans never allocate; the rest share
// one overflow chunk allocated on first use). All recording methods are
// nil-receiver-safe, so uninstrumented code paths pay one nil check and
// no branches at call sites. Registration (Counter, Gauge, Histogram,
// Vec.With) takes locks and allocates; do it at startup, never per
// sample. These properties are pinned by AllocsPerRun tests in this
// package and by the zero-alloc guards on the oracle serve path and the
// fused MC loop.
//
// # Exposition
//
// Registry.WritePrometheus emits the classic Prometheus text format
// (counters, gauges, cumulative histogram buckets with _sum and _count);
// Registry.Handler serves it over HTTP. ParseText (scrape.go) is the
// matching client-side parser used by cmd/loadgen -scrape and the CI
// smoke assertions.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards all recordings.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d (negative deltas are ignored so the
// counter stays monotone).
func (c *Counter) Add(d int64) {
	if c == nil || d < 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 value that can go up and down. The zero value
// reads 0; a nil *Gauge discards all recordings.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d with a CAS loop (no allocation).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metric kinds, also the TYPE strings of the exposition format.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// series is one labeled instance of a family; exactly one of the value
// fields is set, matching the family kind.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	fn        func() float64 // gauge-func series evaluate at exposition
	h         *Histogram
}

// family is one named metric with its label schema and series set.
type family struct {
	name      string
	help      string
	kind      string
	labelKeys []string
	buckets   []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion-ordered series keys; exposition sorts
}

// Registry is a collection of metric families. Construct with New.
// Registration methods are idempotent: asking for an existing name with
// the same kind and label schema returns the same handle, while any
// mismatch panics (metric identity is a programmer invariant, caught at
// startup by the first exposition test, never a runtime condition).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookupFamily returns the named family, creating it on first use and
// panicking on any identity mismatch.
func (r *Registry) lookupFamily(name, help, kind string, labelKeys []string, buckets []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, k := range labelKeys {
		if !labelRE.MatchString(k) {
			panic(fmt.Sprintf("telemetry: invalid label key %q on %s", k, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name:      name,
			help:      help,
			kind:      kind,
			labelKeys: append([]string(nil), labelKeys...),
			buckets:   append([]float64(nil), buckets...),
			series:    make(map[string]*series),
		}
		r.fams[name] = f
		return f
	}
	if f.kind != kind || len(f.labelKeys) != len(labelKeys) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s(%d labels), was %s(%d labels)",
			name, kind, len(labelKeys), f.kind, len(f.labelKeys)))
	}
	for i := range labelKeys {
		if f.labelKeys[i] != labelKeys[i] {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with label %q, was %q",
				name, labelKeys[i], f.labelKeys[i]))
		}
	}
	return f
}

// seriesKey joins label values with an unprintable separator (label values
// never contain it; exposition escapes values independently).
func seriesKey(vals []string) string { return strings.Join(vals, "\x1f") }

// seriesFor returns the series for the given label values, creating it
// with mk on first use.
func (f *family) seriesFor(vals []string, mk func() *series) *series {
	if len(vals) != len(f.labelKeys) {
		panic(fmt.Sprintf("telemetry: metric %q given %d label values, schema has %d",
			f.name, len(vals), len(f.labelKeys)))
	}
	key := seriesKey(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labelVals = append([]string(nil), vals...)
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// CounterVec registers a counter family with the given label keys.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{fam: r.lookupFamily(name, help, kindCounter, labelKeys, nil)}
}

// CounterVec is a labeled counter family; With resolves one series.
type CounterVec struct{ fam *family }

// With returns the counter of the given label values, creating it on
// first use. With locks and may allocate — resolve handles at setup time,
// not on the hot path.
func (v *CounterVec) With(labelVals ...string) *Counter {
	return v.fam.seriesFor(labelVals, func() *series { return &series{c: &Counter{}} }).c
}

// Func registers one series of the family whose value is computed by fn
// at exposition time — the labeled form of CounterFunc, for per-op
// counts the owner already maintains in its own atomics. fn must be
// monotone non-decreasing and safe for concurrent use. Panics if the
// series already exists with a stored value.
func (v *CounterVec) Func(fn func() float64, labelVals ...string) {
	s := v.fam.seriesFor(labelVals, func() *series { return &series{fn: fn} })
	if s.fn == nil {
		panic(fmt.Sprintf("telemetry: metric %q series %v re-registered as func, was stored", v.fam.name, labelVals))
	}
}

// Gauge registers (or retrieves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookupFamily(name, help, kindGauge, nil, nil)
	return f.seriesFor(nil, func() *series { return &series{g: &Gauge{}} }).g
}

// GaugeVec registers a gauge family with the given label keys.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{fam: r.lookupFamily(name, help, kindGauge, labelKeys, nil)}
}

// GaugeVec is a labeled gauge family; With resolves one series.
type GaugeVec struct{ fam *family }

// With returns the gauge of the given label values (see CounterVec.With).
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	return v.fam.seriesFor(labelVals, func() *series { return &series{g: &Gauge{}} }).g
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — zero hot-path cost for values the owner already tracks (cache
// entry counts, resident bytes). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookupFamily(name, help, kindGauge, nil, nil)
	f.seriesFor(nil, func() *series { return &series{fn: fn} })
}

// CounterFunc registers a counter whose value is computed by fn at
// exposition time. For counts the owner already maintains in its own
// atomics (the oracle's cache statistics), this costs the hot path
// nothing and cannot drift from the owner's view. fn must be monotone
// non-decreasing and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookupFamily(name, help, kindCounter, nil, nil)
	f.seriesFor(nil, func() *series { return &series{fn: fn} })
}

// sortedFamilies snapshots the family set in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries snapshots a family's series in label-value order.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	out := make([]*series, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.Unlock()
	return out
}
