package telemetry

import (
	"context"
	"regexp"
	"testing"
	"time"
)

func TestTraceIDFormat(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if !re.MatchString(id) {
			t.Fatalf("trace ID %q not 16 lowercase hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

// TestTracePhases: the phase breakdown sums the root's finished child
// spans by name in first-seen order, skipping zero-length and open spans.
func TestTracePhases(t *testing.T) {
	tr := NewTrace("abc")
	if tr.ID != "abc" {
		t.Fatalf("ID = %q", tr.ID)
	}
	if got := string(tr.AppendPhases(nil)); got != "" {
		t.Fatalf("phases before any span = %q, want empty", got)
	}
	root := tr.StartSpan("request", SpanRef{})
	tr.AddSpan("build", root, tr.Start(), 3*time.Millisecond)
	tr.AddSpan("extend", root, tr.Start(), time.Millisecond)
	tr.AddSpan("build", root, tr.Start(), 2*time.Millisecond)
	tr.AddSpan("queue", root, tr.Start(), 0)                  // zero: omitted
	tr.StartSpan("serialize", root)                           // open: omitted
	tr.AddSpan("forward", SpanRef{}, tr.Start(), time.Second) // not under the root
	if got := string(tr.AppendPhases([]byte("phases: "))); got != "phases: build=5ms extend=1ms" {
		t.Fatalf("AppendPhases = %q", got)
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTrace("")
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatal("empty context must yield nil trace")
	}
}

func TestNilTraceInert(t *testing.T) {
	var tr *Trace
	if len(tr.AppendPhases(nil)) != 0 || !tr.Start().IsZero() {
		t.Fatal("nil trace must be inert")
	}
}
