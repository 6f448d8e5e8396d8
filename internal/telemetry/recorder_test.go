package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// finishedTrace builds a sealed trace with a root span, optionally
// flagged — the shape the middleware hands to Record.
func finishedTrace(f Flag) *Trace {
	tr := NewTrace("")
	root := tr.StartSpan("request", SpanRef{})
	root.End()
	if f != 0 {
		tr.SetFlag(f)
	}
	tr.Finish()
	return tr
}

func TestRecorderKeepsFlaggedAndSlow(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 16, SampleRate: -1}) // sampling off
	for _, f := range []Flag{FlagError, FlagHedged, FlagHedgeWon, FlagBreaker, FlagForce} {
		if !rec.Record(finishedTrace(f)) {
			t.Errorf("flag %#x trace not kept", f)
		}
	}
	// Slow traces are kept by the latency rule even when unflagged.
	slow := NewTrace("")
	slow.durNS.Store(int64(200 * time.Millisecond))
	slow.flags.Or(uint32(flagSealed))
	if !rec.Record(slow) {
		t.Error("over-threshold trace not kept")
	}
	// A fast, unflagged trace is dropped with sampling disabled.
	if rec.Record(finishedTrace(0)) {
		t.Error("boring trace kept with SampleRate < 0")
	}
	kept, dropped := rec.Stats()
	if kept != 6 || dropped != 1 {
		t.Fatalf("stats = %d kept %d dropped, want 6/1", kept, dropped)
	}
}

func TestRecorderLatencyRuleDisabled(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 4, LatencyThreshold: -1, SampleRate: -1})
	slow := NewTrace("")
	slow.durNS.Store(int64(time.Hour))
	if rec.Record(slow) {
		t.Fatal("latency rule fired with a negative threshold")
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 4, SampleRate: -1}) // 2 + 2 slots
	var ids []string
	for i := 0; i < 5; i++ {
		tr := finishedTrace(FlagForce)
		ids = append(ids, tr.ID)
		rec.Record(tr)
	}
	snap := rec.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("held traces = %d, want ring capacity 2", len(snap))
	}
	// Newest first: the last two admitted survive the wrap.
	if snap[0].ID != ids[4] || snap[1].ID != ids[3] {
		t.Fatalf("held %s,%s want %s,%s", snap[0].ID, snap[1].ID, ids[4], ids[3])
	}
	if _, ok := rec.Lookup(ids[0]); ok {
		t.Error("evicted trace still found by Lookup")
	}
	if _, ok := rec.Lookup(ids[4]); !ok {
		t.Error("newest trace not found by Lookup")
	}
}

// TestRecorderInterestingSurvivesBoringFlood pins the two-ring split: a
// flood of sampled-in boring traces must not evict an errored trace.
func TestRecorderInterestingSurvivesBoringFlood(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 8, SampleRate: 1})
	bad := finishedTrace(FlagError)
	rec.Record(bad)
	for i := 0; i < 100; i++ {
		rec.Record(finishedTrace(0))
	}
	if _, ok := rec.Lookup(bad.ID); !ok {
		t.Fatal("errored trace evicted by boring flood")
	}
}

// TestRecorderDeterministicSampling pins the seeded sampler: two
// recorders admit the same boring subsequence, at about the configured
// rate.
func TestRecorderDeterministicSampling(t *testing.T) {
	decisions := func() []bool {
		rec := NewRecorder(RecorderConfig{Capacity: 512, SampleRate: 0.25})
		out := make([]bool, 200)
		for i := range out {
			out[i] = rec.Record(finishedTrace(0))
		}
		return out
	}
	a, b := decisions(), decisions()
	same, keptA := true, 0
	for i := range a {
		same = same && a[i] == b[i]
		if a[i] {
			keptA++
		}
	}
	if !same {
		t.Error("two recorders admitted different subsequences")
	}
	// ~25% of 200, with generous slack for the hash stream.
	if keptA < 20 || keptA > 90 {
		t.Errorf("kept %d/200 at rate 0.25 — sampler badly biased", keptA)
	}
}

func TestRecorderZeroAlloc(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 16, SampleRate: -1})
	flagged := finishedTrace(FlagForce)
	boring := finishedTrace(0)
	if allocs := testing.AllocsPerRun(200, func() {
		rec.Record(flagged) // keep path
	}); allocs != 0 {
		t.Fatalf("Record keep path: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		rec.Record(boring) // drop path
	}); allocs != 0 {
		t.Fatalf("Record drop path: %v allocs/op, want 0", allocs)
	}
}

// TestRecorderConcurrentRecordScrape races writers against scrapers —
// meaningful under -race: the publish protocol must keep Snapshot and
// Lookup clean while traces are admitted and overwritten.
func TestRecorderConcurrentRecordScrape(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 8, SampleRate: 1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace("")
				root := tr.StartSpan("request", SpanRef{})
				sp := tr.StartSpan("work", root)
				sp.SetAttr("k", "v")
				sp.End()
				if g == 0 && i%3 == 0 {
					tr.SetFlag(FlagError)
				}
				root.End()
				tr.Finish()
				rec.Record(tr)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, ts := range rec.Snapshot() {
					if ts.ID == "" {
						t.Error("snapshot exposed a trace without an ID")
						return
					}
					rec.Lookup(ts.ID)
				}
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
	kept, dropped := rec.Stats()
	if kept+dropped != 800 {
		t.Fatalf("kept %d + dropped %d != 800 offered", kept, dropped)
	}
}

func TestRecorderHandler(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 8, SampleRate: -1})
	tr := finishedTrace(FlagError)
	rec.Record(tr)
	rec.Record(finishedTrace(0)) // dropped

	rr := httptest.NewRecorder()
	rec.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("list status = %d", rr.Code)
	}
	var list TraceList
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatalf("list payload: %v", err)
	}
	if list.Kept != 1 || list.Dropped != 1 || len(list.Traces) != 1 {
		t.Fatalf("list = kept %d dropped %d traces %d, want 1/1/1", list.Kept, list.Dropped, len(list.Traces))
	}
	if list.Traces[0].ID != tr.ID || len(list.Traces[0].Spans) != 1 {
		t.Fatalf("held trace = %+v", list.Traces[0])
	}

	rr = httptest.NewRecorder()
	rec.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?id="+tr.ID, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("single-trace status = %d", rr.Code)
	}
	var ts TraceSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &ts); err != nil || ts.ID != tr.ID {
		t.Fatalf("single-trace payload: %v (err %v)", ts, err)
	}

	rr = httptest.NewRecorder()
	rec.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?id=ffffffffffffffff", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("missing-trace status = %d, want 404", rr.Code)
	}
}

func TestRecorderNilSafety(t *testing.T) {
	var rec *Recorder
	if rec.Record(finishedTrace(FlagError)) {
		t.Fatal("nil recorder kept a trace")
	}
	if got := rec.Snapshot(); got != nil {
		t.Fatal("nil recorder snapshot not empty")
	}
	if _, ok := rec.Lookup("x"); ok {
		t.Fatal("nil recorder lookup hit")
	}
	real := NewRecorder(RecorderConfig{})
	if real.Record(nil) {
		t.Fatal("nil trace kept")
	}
}
