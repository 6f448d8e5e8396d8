package runner

import (
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

// jobTracker accumulates one job's telemetry; the nil tracker (package
// uninstrumented) is inert, so pool code calls it unconditionally.
// Workers record their batches concurrently, through atomics.
type jobTracker struct {
	samples *telemetry.Counter
	rate    *telemetry.Gauge
	active  *telemetry.Gauge
	start   time.Time
	n       atomic.Int64
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
	return t
}

// batch records one completed batch of n samples, allocation-free
// (TestTrackerZeroAllocs).
func (t *jobTracker) batch(n int) {
	if t == nil {
		return
	}
	t.samples.Add(int64(n))
	t.n.Add(int64(n))
}

// finish closes the job: decrements the active gauge and publishes the
// job's overall samples/sec.
func (t *jobTracker) finish() {
	if t == nil {
		return
	}
	t.active.Add(-1)
	if el := time.Since(t.start).Seconds(); el > 0 {
		t.rate.Set(float64(t.n.Load()) / el)
	}
}
