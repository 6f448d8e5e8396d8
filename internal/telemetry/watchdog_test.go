package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// newTestWatchdog builds a watchdog with a tiny cooldown over a fresh
// registry; tests drive tick() directly instead of running the ticker
// loop, so trigger evaluation is deterministic.
func newTestWatchdog(t *testing.T, reg *Registry, rec *Recorder) *Watchdog {
	t.Helper()
	w := NewWatchdog(reg, rec, t.TempDir(), nil)
	w.cooldown = time.Nanosecond
	return w
}

func TestWatchdogP99Trigger(t *testing.T) {
	reg := New()
	h := reg.Histogram("serve_http_request_duration_seconds", "test latency", nil)
	w := newTestWatchdog(t, reg, nil)

	w.tick() // baseline window: no lastBuckets yet, no trigger possible
	if w.Bundles() != 0 {
		t.Fatalf("bundle written on the baseline tick")
	}
	// A healthy window stays quiet.
	for i := 0; i < 10; i++ {
		h.Observe(0.001)
	}
	w.tick()
	if w.Bundles() != 0 {
		t.Fatalf("bundle written for a healthy window")
	}
	// A slow window trips the budget (default 1s).
	for i := 0; i < 10; i++ {
		h.Observe(2.0)
	}
	time.Sleep(time.Millisecond) // clear the nanosecond cooldown
	w.tick()
	if w.Bundles() != 1 {
		t.Fatalf("bundles = %d after over-budget window, want 1", w.Bundles())
	}
	// The window resets: a following quiet tick must not re-trigger on
	// the same cumulative counts.
	time.Sleep(time.Millisecond)
	w.tick()
	if w.Bundles() != 1 {
		t.Fatalf("stale window re-triggered: %d bundles", w.Bundles())
	}
}

func TestWatchdogMinWindowSamples(t *testing.T) {
	reg := New()
	h := reg.Histogram("serve_http_request_duration_seconds", "test latency", nil)
	w := newTestWatchdog(t, reg, nil)
	w.tick()
	h.Observe(5.0) // one slow boot-time request, below watchdogMinWindowSamples
	w.tick()
	if w.Bundles() != 0 {
		t.Fatal("single-sample window tripped the p99 trigger")
	}
}

func TestWatchdogBreakerTriggerEdgeDetected(t *testing.T) {
	reg := New()
	g := reg.GaugeVec("cluster_breaker_state", "breaker state", "peer").With("http://p:1")
	w := newTestWatchdog(t, reg, nil)

	g.Set(2)
	w.tick()
	if w.Bundles() != 1 {
		t.Fatalf("bundles = %d after breaker open, want 1", w.Bundles())
	}
	// Breaker staying open is one incident, not one bundle per tick.
	time.Sleep(time.Millisecond)
	w.tick()
	if w.Bundles() != 1 {
		t.Fatalf("level-triggered: %d bundles while breaker stayed open", w.Bundles())
	}
	// Close, reopen: a fresh edge, a fresh bundle.
	g.Set(0)
	w.tick()
	g.Set(2)
	time.Sleep(time.Millisecond)
	w.tick()
	if w.Bundles() != 2 {
		t.Fatalf("bundles = %d after breaker reopened, want 2", w.Bundles())
	}
}

func TestWatchdogReadyFlapTrigger(t *testing.T) {
	reg := New()
	g := reg.Gauge("serve_ready", "readiness")
	w := newTestWatchdog(t, reg, nil)

	// Booting not-ready (0 with no prior 1) is not a flap.
	g.Set(0)
	w.tick()
	if w.Bundles() != 0 {
		t.Fatal("boot-time not-ready treated as a flap")
	}
	g.Set(1)
	w.tick()
	g.Set(0)
	w.tick()
	if w.Bundles() != 1 {
		t.Fatalf("bundles = %d after ready 1->0, want 1", w.Bundles())
	}
}

func TestWatchdogCooldownSuppresses(t *testing.T) {
	reg := New()
	g := reg.Gauge("serve_ready", "readiness")
	w := NewWatchdog(reg, nil, t.TempDir(), nil) // 30s cooldown
	g.Set(1)
	w.tick()
	g.Set(0)
	w.tick()
	g.Set(1)
	w.tick()
	g.Set(0)
	w.tick()
	if w.Bundles() != 1 {
		t.Fatalf("bundles = %d with 30s cooldown, want 1", w.Bundles())
	}
}

func TestWatchdogBundleContents(t *testing.T) {
	reg := New()
	reg.Gauge("serve_ready", "readiness").Set(1)
	rec := NewRecorder(RecorderConfig{Capacity: 8, SampleRate: -1})
	slow := finishedTrace(FlagError)
	rec.Record(slow)
	dir := t.TempDir()
	w := NewWatchdog(reg, rec, dir, nil)

	bdir, err := w.WriteBundle("manual", "test capture")
	if err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	if filepath.Dir(bdir) != dir {
		t.Fatalf("bundle dir %q not under %q", bdir, dir)
	}
	for _, name := range []string{"meta.json", "traces.json", "metrics.prom", "goroutines.txt", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(bdir, name))
		if err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
			continue
		}
		if fi.Size() == 0 && name != "heap.pprof" {
			t.Errorf("bundle file %s is empty", name)
		}
	}

	raw, err := os.ReadFile(filepath.Join(bdir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta bundleMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	if meta.Reason != "manual" || meta.PID != os.Getpid() || meta.TracesKept != 1 {
		t.Fatalf("meta = %+v", meta)
	}

	raw, err = os.ReadFile(filepath.Join(bdir, "traces.json"))
	if err != nil {
		t.Fatal(err)
	}
	var list TraceList
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("traces.json: %v", err)
	}
	if len(list.Traces) != 1 || list.Traces[0].ID != slow.ID {
		t.Fatalf("traces.json = %+v, want the one errored trace", list)
	}

	raw, err = os.ReadFile(filepath.Join(bdir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("metrics.prom does not re-parse: %v", err)
	}
	if v, ok := sc.Value("serve_ready", nil); !ok || v != 1 {
		t.Fatalf("metrics.prom serve_ready = %v %v, want 1", v, ok)
	}
}

func TestWatchdogMaxBundlesCap(t *testing.T) {
	reg := New()
	g := reg.Gauge("serve_ready", "readiness")
	w := NewWatchdog(reg, nil, t.TempDir(), nil)
	w.cooldown, w.maxBundles = time.Nanosecond, 2
	for i := 0; i < 4; i++ {
		g.Set(1)
		w.tick()
		g.Set(0)
		time.Sleep(time.Millisecond)
		w.tick()
	}
	if w.Bundles() != 2 {
		t.Fatalf("bundles = %d with a cap of 2, want 2", w.Bundles())
	}
}

func TestWatchdogRunClose(t *testing.T) {
	reg := New()
	w := NewWatchdog(reg, nil, t.TempDir(), nil)
	w.interval = time.Millisecond
	go w.Run()
	time.Sleep(5 * time.Millisecond)
	w.Close()
	w.Close() // idempotent
}
