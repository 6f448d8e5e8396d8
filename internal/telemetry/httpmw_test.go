package telemetry

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMiddlewareMintsAndEchoesTraceID(t *testing.T) {
	r := New()
	m := NewHTTPMetrics(r, "serve")
	var seen *Trace
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		seen = TraceFrom(req.Context())
		seen.AddSpan("build", seen.Root(), seen.Start(), 2*time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}), MiddlewareConfig{Metrics: m})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cell?x=1", nil))
	if seen == nil || seen.ID == "" {
		t.Fatal("handler did not receive a trace")
	}
	if got := rec.Header().Get(TraceHeader); got != seen.ID {
		t.Fatalf("response header %q, want %q", got, seen.ID)
	}
	if got := m.requests.With("/v1/cell", "200").Value(); got != 1 {
		t.Fatalf("request counter = %d, want 1", got)
	}
	if got := m.duration.With("/v1/cell", "200").Count(); got != 1 {
		t.Fatalf("duration count = %d, want 1", got)
	}
}

func TestMiddlewareAdoptsIncomingTraceID(t *testing.T) {
	var got string
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		got = TraceFrom(req.Context()).ID
	}), MiddlewareConfig{})
	req := httptest.NewRequest("GET", "/v1/depth", nil)
	req.Header.Set(TraceHeader, "f0f1f2f3f4f5f6f7")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if got != "f0f1f2f3f4f5f6f7" {
		t.Fatalf("trace ID = %q, want the forwarded one", got)
	}
}

// TestMiddlewareRejectsMalformedTraceID pins the header-validation
// contract: only 16-lowercase-hex IDs are adopted; junk, wrong-length,
// uppercase, and injection-shaped values are discarded and a fresh ID
// minted (and echoed on the response).
func TestMiddlewareRejectsMalformedTraceID(t *testing.T) {
	for _, bad := range []string{
		"forwarded01234ab",        // non-hex letters
		"ABCDEF0123456789",        // uppercase
		"abc",                     // short
		"aaaabbbbccccdddd0",       // long
		"aaaabbbbcccc\"dd",        // quote injection
		"aaaabbbbccccdd d",        // embedded space
		strings.Repeat("a", 1024), // oversized
	} {
		var got string
		h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			got = TraceFrom(req.Context()).ID
		}), MiddlewareConfig{})
		req := httptest.NewRequest("GET", "/v1/depth", nil)
		req.Header.Set(TraceHeader, bad)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got == bad {
			t.Errorf("malformed trace ID %q was adopted", bad)
		}
		if !ValidTraceID(got) {
			t.Errorf("minted replacement %q is not a valid trace ID", got)
		}
		if echo := rec.Header().Get(TraceHeader); echo != got {
			t.Errorf("response echoes %q, want the minted %q", echo, got)
		}
	}
}

// TestMiddlewareLogsTraceAndPhases: the request log line's phases field
// is the root's child spans summed by name — repeated names add up,
// grandchildren and still-open spans stay out.
func TestMiddlewareLogsTraceAndPhases(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := TraceFrom(req.Context())
		root := tr.Root()
		tr.AddSpan("queue", root, tr.Start(), 41*time.Microsecond)
		tr.AddSpan("extend", root, tr.Start(), 3*time.Millisecond)
		fwd := tr.AddSpan("forward", root, tr.Start(), 5*time.Millisecond)
		tr.AddSpan("forward_attempt", fwd, tr.Start(), 4*time.Millisecond)
		tr.AddSpan("extend", root, tr.Start(), 1500*time.Microsecond)
		tr.StartSpan("serialize", root) // never ended: not a phase
		w.WriteHeader(http.StatusBadRequest)
	}), MiddlewareConfig{Logger: logger})
	req := httptest.NewRequest("GET", "/v1/curve", nil)
	req.Header.Set(TraceHeader, "aaaabbbbccccdddd")
	h.ServeHTTP(httptest.NewRecorder(), req)
	log := buf.String()
	for _, want := range []string{
		"trace=aaaabbbbccccdddd", "status=400", "path=/v1/curve",
		`phases="queue=41µs extend=4.5ms forward=5ms"`,
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log line missing %q: %s", want, log)
		}
	}
	// Probe endpoints are metered but never logged.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz/ready", nil))
	if strings.Contains(buf.String(), "/healthz/ready") {
		t.Errorf("probe request was logged: %s", buf.String())
	}
}

// nopWriter is a ResponseWriter that allocates nothing of its own.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopWriter) WriteHeader(int)             {}

// TestRequestLogAllocs bounds the logged request path: the phases field
// is rendered from the span arena in place, so a request with three
// phases costs at most the 12 allocations the old phase-timer rendering
// did.
func TestRequestLogAllocs(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := TraceFrom(req.Context())
		tr.AddSpan("queue", tr.Root(), tr.Start(), 41*time.Microsecond)
		tr.AddSpan("build", tr.Root(), tr.Start(), 12300*time.Microsecond)
		tr.AddSpan("serialize", tr.Root(), tr.Start(), 88*time.Microsecond)
	}), MiddlewareConfig{Logger: logger})
	req := httptest.NewRequest("GET", "/v1/cell", nil)
	w := nopWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(500, func() { h.ServeHTTP(w, req) })
	t.Logf("logged request path: %v allocs/op", allocs)
	if allocs > 12 {
		t.Fatalf("logged request path: %v allocs/op, want <= 12", allocs)
	}
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestEdgeBytes caps the bytes the telemetry edge allocates per request
// — trace, root span, metrics, flight-recorder offer and request log —
// around a handler that records the warm path's queue and serialize
// spans. With the 32-slot span arena embedded in every Trace it was
// 8.8 KB (go1.24, linux/amd64); with 6 inline slots it measured 2.05 KB,
// and the cap leaves 3%.
func TestEdgeBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop items at random, so slog allocates more")
	}
	reg := New()
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := TraceFrom(req.Context())
		tr.AddSpan("queue", tr.Root(), tr.Start(), time.Microsecond)
		tr.AddSpan("serialize", tr.Root(), tr.Start(), time.Microsecond)
	}), MiddlewareConfig{
		Metrics:  NewHTTPMetrics(reg, "serve"),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Recorder: NewRecorder(RecorderConfig{Capacity: 256, LatencyThreshold: time.Second, SampleRate: 0.05}),
	})
	req := httptest.NewRequest("GET", "/v1/cell?alpha=0.3", nil)
	w := nopWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	serve()
	const runs = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&m1)
	if got := float64(m1.TotalAlloc-m0.TotalAlloc) / runs; got > 2110 {
		t.Errorf("telemetry edge: %.0f bytes allocated per request, want ≤ 2110", got)
	}
}

func TestEndpointNormalization(t *testing.T) {
	cases := map[string]string{
		"/v1/cell":           "/v1/cell",
		"/healthz/ready":     "/healthz/ready",
		"/metrics":           "/metrics",
		"/debug/pprof/heap":  "/debug/pprof",
		"/etc/passwd":        "other",
		"/v1/cell/../secret": "other",
	}
	for path, want := range cases {
		if got := Endpoint(path); got != want {
			t.Errorf("Endpoint(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestMiddlewareStatusDefault(t *testing.T) {
	r := New()
	m := NewHTTPMetrics(r, "serve")
	h := MiddlewareWith(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte("implicit 200")) // no WriteHeader call
	}), MiddlewareConfig{Metrics: m})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz/live", nil))
	if got := m.requests.With("/healthz/live", "200").Value(); got != 1 {
		t.Fatalf("implicit 200 not recorded: %d", got)
	}
}
