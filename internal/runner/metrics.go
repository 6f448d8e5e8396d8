package runner

import (
	"sync"
	"sync/atomic"
	"time"

	"multihonest/internal/telemetry"
)

// runnerMetrics is the package's optional telemetry export, recorded by
// runBatches. Installed once by Instrument; absent, every tracker below
// is nil and recording is inert.
type runnerMetrics struct {
	samples *telemetry.CounterVec // by job name, counted per batch
	rate    *telemetry.GaugeVec   // samples/sec of the last finished job
	active  *telemetry.Gauge      // jobs in flight
}

// met is loaded once per job, never per sample: the hot sample loops
// touch no telemetry at all, and batch completions cost one counter add.
var met atomic.Pointer[runnerMetrics]

// recorder optionally routes one operational trace per job — a
// runner_job root span with per-batch child spans — into a flight
// recorder. Installed by ObserveJobs; nil leaves jobs untraced.
var recorder atomic.Pointer[telemetry.Recorder]

// Instrument registers the runner's metric families on reg. Safe to call
// before or between jobs; jobs already running keep their old handles.
func Instrument(reg *telemetry.Registry) {
	met.Store(&runnerMetrics{
		samples: reg.CounterVec("runner_samples_total", "Monte-Carlo samples completed, by job.", "job"),
		rate: reg.GaugeVec("runner_samples_per_second",
			"Throughput of the most recently finished job of each name.", "job"),
		active: reg.Gauge("runner_active_jobs", "Monte-Carlo jobs currently running."),
	})
}

// ObserveJobs routes one force-flagged trace per finished job into rec,
// so long Monte-Carlo jobs appear in /debug/traces with their batch
// cadence. Pass nil to stop. Requires Instrument (trackers only exist
// on instrumented runs).
func ObserveJobs(rec *telemetry.Recorder) {
	if rec == nil {
		recorder.Store(nil)
		return
	}
	recorder.Store(rec)
}

// jobTracker accumulates one job's telemetry; the nil tracker (package
// uninstrumented) is inert, so pool code calls it unconditionally.
// Workers record their batches concurrently; mu serializes them.
type jobTracker struct {
	mu      sync.Mutex
	samples *telemetry.Counter
	rate    *telemetry.Gauge
	active  *telemetry.Gauge
	start   time.Time
	n       int64

	// trace is the job's operational trace when ObserveJobs installed a
	// recorder; batch() turns inter-mark intervals into batch spans with
	// zero allocation (the span arena lives inside the trace).
	trace    *telemetry.Trace
	root     telemetry.SpanRef
	lastMark time.Time
}

// track opens a job tracker for a config, resolving the per-job series
// once so batch completions never take the registry lock.
func track(cfg *Config) *jobTracker {
	m := met.Load()
	if m == nil {
		return nil
	}
	name := cfg.Name
	if name == "" {
		name = "unnamed"
	}
	m.active.Add(1)
	t := &jobTracker{
		samples: m.samples.With(name),
		rate:    m.rate.With(name),
		active:  m.active,
		start:   time.Now(),
	}
	if recorder.Load() != nil {
		t.trace = telemetry.NewTrace("")
		t.root = t.trace.StartSpan("runner_job", telemetry.SpanRef{})
		t.root.SetAttr("job", name)
		t.lastMark = t.start
	}
	return t
}

// batch records one completed batch of n samples. With a recorder
// installed, the interval since the previous batch becomes a batch span
// under the job's root — still allocation-free, which
// TestTrackerZeroAllocs pins.
func (t *jobTracker) batch(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples.Add(int64(n))
	t.n += int64(n)
	if t.trace != nil {
		now := time.Now()
		sp := t.trace.AddSpan("batch", t.root, t.lastMark, now.Sub(t.lastMark))
		sp.SetValue(int64(n))
		t.lastMark = now
	}
}

// finish closes the job: decrements the active gauge, publishes the
// job's overall samples/sec, and offers the job trace (sample count on
// the root span) to the recorder.
func (t *jobTracker) finish() {
	if t == nil {
		return
	}
	t.active.Add(-1)
	if el := time.Since(t.start).Seconds(); el > 0 {
		t.rate.Set(float64(t.n) / el)
	}
	if t.trace != nil {
		t.root.SetValue(t.n)
		t.root.End()
		t.trace.SetFlag(telemetry.FlagForce)
		t.trace.Finish()
		recorder.Load().Record(t.trace)
	}
}
