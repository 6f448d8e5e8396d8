package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Watchdog is the anomaly-capture loop: it polls its own registry (via
// the same exposition text an external scraper would read, so what it
// sees is exactly what /metrics says) and, when a trigger fires, writes
// a diagnostics bundle — recent flight-recorder traces, a metrics
// snapshot, goroutine and heap profiles, and a meta record — into its
// directory. Triggers:
//
//   - p99_over_budget: the rolling p99 of the request latency histogram
//     over the last poll window exceeded watchdogP99Budget;
//   - breaker_open: any cluster_breaker_state series reached 2 (open);
//   - ready_flap: the serve_ready gauge fell from 1 to 0.
//
// Each trigger is edge-detected (a breaker that stays open writes one
// bundle, not one per tick) and bundles are rate-limited by a global
// cooldown, so a sustained incident produces a handful of bundles, not
// a disk-filling stream.
type Watchdog struct {
	reg  *Registry
	rec  *Recorder
	dir  string
	logf func(format string, args ...any)

	// The trigger policy: NewWatchdog sets the watchdog* constants;
	// tests tighten them on the value they built.
	interval   time.Duration
	cooldown   time.Duration
	maxBundles int

	stop chan struct{}
	done chan struct{}

	lastBundle  time.Time
	lastBuckets map[float64]float64
	readyPrev   float64
	breakerPrev bool
	bundles     atomic.Int64
}

// The watchdog's trigger policy.
const (
	// watchdogInterval is the poll period.
	watchdogInterval = 2 * time.Second
	// watchdogP99Budget trips p99_over_budget when the windowed p99 of
	// watchdogHistogram exceeds it.
	watchdogP99Budget = time.Second
	watchdogHistogram = "serve_http_request_duration_seconds"
	// watchdogMinWindowSamples is the minimum observation count in a
	// window for its p99 to be trusted: one slow curl during boot should
	// not trip the alarm.
	watchdogMinWindowSamples = 5
	// watchdogCooldown rate-limits bundle writes.
	watchdogCooldown = 30 * time.Second
	// watchdogMaxBundles stops writing after this many bundles in one
	// process lifetime.
	watchdogMaxBundles = 16
)

// NewWatchdog builds a watchdog over reg and rec (rec may be nil — the
// bundle then simply has no traces) that writes its bundles under dir
// and logs one line per trigger and bundle to logf (nil discards). Call
// Run on a goroutine, Close to stop.
func NewWatchdog(reg *Registry, rec *Recorder, dir string, logf func(format string, args ...any)) *Watchdog {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Watchdog{
		reg:        reg,
		rec:        rec,
		dir:        dir,
		logf:       logf,
		interval:   watchdogInterval,
		cooldown:   watchdogCooldown,
		maxBundles: watchdogMaxBundles,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		readyPrev:  -1,
	}
}

// Run polls until Close. Trigger evaluation errors are logged and the
// loop keeps going: a broken watchdog must degrade to no diagnostics,
// never to a crashed server.
func (w *Watchdog) Run() {
	defer close(w.done)
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			w.tick()
		}
	}
}

// Close stops the loop.
func (w *Watchdog) Close() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

// tick evaluates every trigger against a fresh self-scrape.
func (w *Watchdog) tick() {
	var b strings.Builder
	if err := w.reg.WritePrometheus(&b); err != nil {
		w.logf("watchdog: self-scrape: %v", err)
		return
	}
	sc, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		w.logf("watchdog: parse self-scrape: %v", err)
		return
	}

	// p99 over the last window: delta of the cumulative buckets.
	buckets := sc.Buckets(watchdogHistogram, nil)
	if w.lastBuckets != nil {
		delta := DeltaBuckets(w.lastBuckets, buckets)
		if n := delta[infBound]; n >= watchdogMinWindowSamples {
			if p99 := QuantileFromBuckets(delta, 0.99); p99 > watchdogP99Budget.Seconds() {
				w.trigger(fmt.Sprintf("p99_over_budget p99=%.3fs budget=%v window_n=%.0f",
					p99, watchdogP99Budget, n), "p99_over_budget")
			}
		}
	}
	w.lastBuckets = buckets

	// Breaker open: any peer's exported state at 2.
	breakerOpen := false
	for _, smp := range sc.Samples {
		if smp.Name == "cluster_breaker_state" && smp.Value >= 2 {
			breakerOpen = true
			break
		}
	}
	if breakerOpen && !w.breakerPrev {
		w.trigger("breaker_open", "breaker_open")
	}
	w.breakerPrev = breakerOpen

	// Readiness flap: ready fell from 1 to 0 while we watched.
	if ready, ok := sc.Value("serve_ready", nil); ok {
		if w.readyPrev == 1 && ready == 0 {
			w.trigger("ready_flap", "ready_flap")
		}
		w.readyPrev = ready
	}
}

// trigger writes a bundle unless rate-limited.
func (w *Watchdog) trigger(detail, reason string) {
	if time.Since(w.lastBundle) < w.cooldown {
		w.logf("watchdog: %s suppressed (cooldown)", detail)
		return
	}
	if w.bundles.Load() >= int64(w.maxBundles) {
		w.logf("watchdog: %s suppressed (bundle cap %d reached)", detail, w.maxBundles)
		return
	}
	dir, err := w.WriteBundle(reason, detail)
	if err != nil {
		w.logf("watchdog: bundle for %s: %v", reason, err)
		return
	}
	w.lastBundle = time.Now()
	w.logf("watchdog: %s -> bundle %s", detail, dir)
}

// bundleMeta is the bundle's meta.json document.
type bundleMeta struct {
	Reason     string    `json:"reason"`
	Detail     string    `json:"detail"`
	WrittenAt  time.Time `json:"written_at"`
	UnixNanos  int64     `json:"unix_nanos"`
	PID        int       `json:"pid"`
	Goroutines int       `json:"goroutines"`
	TracesKept int64     `json:"traces_kept"`
}

// WriteBundle writes one diagnostics bundle now (also the manual
// "capture the current state" entry point) and returns its directory:
//
//	<dir>/bundle-<unix_ms>-<reason>/
//	    meta.json        reason, timestamps, pid
//	    traces.json      the flight recorder's current contents
//	    metrics.prom     full /metrics exposition text
//	    goroutines.txt   all goroutine stacks (pprof debug=2)
//	    heap.pprof       heap profile
func (w *Watchdog) WriteBundle(reason, detail string) (string, error) {
	now := time.Now()
	dir := filepath.Join(w.dir,
		fmt.Sprintf("bundle-%d-%s", now.UnixMilli(), sanitizeReason(reason)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	var kept int64
	if w.rec != nil {
		kept, _ = w.rec.Stats()
		traces := w.rec.Snapshot()
		sort.SliceStable(traces, func(i, j int) bool { return traces[i].DurNS > traces[j].DurNS })
		if err := writeJSONFile(filepath.Join(dir, "traces.json"), TraceList{
			Kept: kept, Traces: traces,
		}); err != nil {
			return dir, err
		}
	}

	mf, err := os.Create(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		return dir, err
	}
	err = w.reg.WritePrometheus(mf)
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return dir, err
	}

	gf, err := os.Create(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		return dir, err
	}
	err = pprof.Lookup("goroutine").WriteTo(gf, 2)
	if cerr := gf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return dir, err
	}

	hf, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return dir, err
	}
	err = pprof.WriteHeapProfile(hf)
	if cerr := hf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return dir, err
	}

	if err := writeJSONFile(filepath.Join(dir, "meta.json"), bundleMeta{
		Reason:     reason,
		Detail:     detail,
		WrittenAt:  now,
		UnixNanos:  now.UnixNano(),
		PID:        os.Getpid(),
		Goroutines: runtime.NumGoroutine(),
		TracesKept: kept,
	}); err != nil {
		return dir, err
	}
	w.bundles.Add(1)
	return dir, nil
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitizeReason keeps bundle directory names shell-friendly.
func sanitizeReason(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "manual"
	}
	return b.String()
}
