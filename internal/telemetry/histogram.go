package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency bucket ladder, in seconds: 50µs to 10s
// in a 1-2.5-5 progression. It spans the repo's serving regimes — cache
// hits (tens of µs), incremental curve extensions (sub-ms), cold DP builds
// (ms to s), and end-to-end chaos-run tails.
var DefBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket cumulative latency histogram. Observations
// are classified by a bounded linear scan over the upper bounds and
// recorded with two atomic operations (bucket count, running sum): no
// locks, no allocation, safe for any number of concurrent recorders. A
// nil *Histogram discards all recordings.
type Histogram struct {
	bounds []float64       // ascending upper bounds, seconds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits of the running sum, CAS-updated

	// exemplars holds, per bucket, the most recent traced observation
	// that landed there — the link from a latency bucket back to a
	// flight-recorder trace ("show me a p99 request"). Written by
	// ObserveWithExemplar only, so the plain Observe hot paths never
	// touch it.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one observation to the trace that produced it.
type Exemplar struct {
	TraceID string
	Value   float64
	Time    time.Time
}

// newHistogram builds the recording state for one series.
func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Histogram registers (or retrieves) an unlabeled histogram with the given
// bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.lookupFamily(name, help, kindHistogram, nil, bounds)
	return f.seriesFor(nil, func() *series { return &series{h: newHistogram(f.buckets)} }).h
}

// HistogramVec registers a histogram family with the given label keys
// (nil bounds selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelKeys ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{fam: r.lookupFamily(name, help, kindHistogram, labelKeys, bounds)}
}

// HistogramVec is a labeled histogram family; With resolves one series.
type HistogramVec struct{ fam *family }

// With returns the histogram of the given label values (see
// CounterVec.With — resolve at setup time, not per observation).
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return v.fam.seriesFor(labelVals, func() *series { return &series{h: newHistogram(v.fam.buckets)} }).h
}

// Observe records one value (in seconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveWithExemplar records one value and remembers (bucket-wise) the
// trace that produced it; /metrics then emits the exemplar after that
// bucket's line. Allocates one small struct — call it from edges and
// cold paths (HTTP middleware, DP builds), not from per-op hot loops.
// An empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
}

// BucketExemplar returns the stored exemplar of bucket i (counting the
// +Inf bucket last), or nil.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if h == nil || i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Sum returns the sum of all observed values, in seconds.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot copies the per-bucket counts (non-cumulative).
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// quantileFromCumulative is the shared bucket-quantile estimator: bounds
// are the ascending finite upper bounds, cum the cumulative counts with
// one extra final entry for the +Inf bucket.
func quantileFromCumulative(bounds []float64, cum []float64, q float64) float64 {
	if len(cum) == 0 || len(bounds)+1 != len(cum) {
		return 0
	}
	total := cum[len(cum)-1]
	if total == 0 || !(q > 0) {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	i := 0
	for i < len(cum)-1 && cum[i] < rank {
		i++
	}
	if i == len(bounds) {
		// +Inf bucket: clamp to the largest finite bound.
		if len(bounds) == 0 {
			return 0
		}
		return bounds[len(bounds)-1]
	}
	lo := 0.0
	if i > 0 {
		lo = bounds[i-1]
	}
	hi := bounds[i]
	prev := 0.0
	if i > 0 {
		prev = cum[i-1]
	}
	inBucket := cum[i] - prev
	if inBucket <= 0 {
		return hi
	}
	return lo + (hi-lo)*(rank-prev)/inBucket
}
