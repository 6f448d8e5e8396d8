package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// Recorder is the flight recorder: a lock-light ring buffer of completed
// traces with tail sampling. The admission policy keeps everything
// interesting — errors, hedged and hedge-won requests, breaker
// transitions, force-flagged operational traces, and anything slower
// than the latency threshold — unconditionally, and keeps the boring
// rest with a configurable probability so a healthy steady state still
// leaves a browsable sample. Interesting and sampled traces land in
// separate rings, so a flood of fast, healthy requests can never evict
// the one errored trace an operator is about to go looking for.
//
// Record is zero-alloc and lock-free on both the keep and the drop
// path: one atomic counter drives the deterministic sampler, one
// fetch-add claims a ring slot, and one atomic pointer store publishes
// the trace. Readers (Snapshot, the /debug/traces handler) copy traces
// out via Trace.Snapshot, which tolerates concurrent span writers, so
// scraping never blocks recording.
type Recorder struct {
	interesting []atomic.Pointer[Trace]
	sampled     []atomic.Pointer[Trace]
	iIdx, sIdx  atomic.Uint64

	threshold time.Duration // keep everything at least this slow
	sampleBP  uint64        // boring keep probability in 1/2^20 units
	tick      atomic.Uint64 // offers seen; doubles as sampler stream position
	admitted  atomic.Uint64 // global admission sequence (Trace.seq)

	kept atomic.Int64 // dropped is derived: tick - kept
}

// RecorderConfig configures NewRecorder; zero fields take the
// documented defaults.
type RecorderConfig struct {
	// Capacity is the total ring capacity in traces, split evenly
	// between the interesting and the sampled ring (default 256,
	// minimum 2).
	Capacity int
	// LatencyThreshold keeps every trace at least this slow regardless
	// of flags (default 100ms; negative disables the latency rule).
	LatencyThreshold time.Duration
	// SampleRate is the keep probability for traces no rule claimed,
	// in [0, 1] (default 0.05). 1 keeps everything.
	SampleRate float64
}

// recorderSeed starts the sampler's splitmix64 stream, so two recorders
// admit the same subsequence of boring traces.
const recorderSeed = 1

// NewRecorder builds a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity < 2 {
		if cfg.Capacity == 0 {
			cfg.Capacity = 256
		} else {
			cfg.Capacity = 2
		}
	}
	if cfg.LatencyThreshold == 0 {
		cfg.LatencyThreshold = 100 * time.Millisecond
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 0.05
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	half := cfg.Capacity / 2
	return &Recorder{
		interesting: make([]atomic.Pointer[Trace], cfg.Capacity-half),
		sampled:     make([]atomic.Pointer[Trace], half),
		threshold:   cfg.LatencyThreshold,
		sampleBP:    uint64(cfg.SampleRate * (1 << 20)),
	}
}

// keepFlags are the trace flags that always admit a trace.
const keepFlags = FlagError | FlagHedged | FlagHedgeWon | FlagBreaker | FlagForce

// Record offers a finished trace to the recorder and reports whether it
// was kept. Traces should be sealed (Finish) first — an unfinished
// trace has no duration, so only its flags can admit it. Nil-safe on
// both receiver and trace; zero-alloc either way.
//
// The common outcome on a healthy service is the boring drop, so that
// path is held to ONE shared atomic write: tick both advances the
// deterministic sampler stream and counts offers (Stats derives dropped
// as offers minus kept), and everything else is plain loads. The keep
// path — rare by construction — pays the ring store and its counters.
func (r *Recorder) Record(tr *Trace) bool {
	if r == nil || tr == nil {
		return false
	}
	n := r.tick.Add(1)
	ring, idx := r.sampled, &r.sIdx
	switch {
	case tr.HasFlag(keepFlags):
		ring, idx = r.interesting, &r.iIdx
	case r.threshold >= 0 && tr.Duration() >= r.threshold && tr.Duration() > 0:
		ring, idx = r.interesting, &r.iIdx
	default:
		// Boring: deterministic coin from the seeded splitmix64 stream.
		if splitmix64(recorderSeed+n)&(1<<20-1) >= r.sampleBP {
			return false
		}
	}
	tr.seq.Store(r.admitted.Add(1))
	ring[(idx.Add(1)-1)%uint64(len(ring))].Store(tr)
	r.kept.Add(1)
	return true
}

// splitmix64 is the finalizer mix also behind NewTraceID — a cheap,
// high-quality hash of the sampler stream position.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stats reports how many traces were kept and dropped. Dropped is
// derived as offers minus kept so the drop path carries no counter of
// its own; a reader racing a concurrent Record may see an offer whose
// keep has not landed yet, transiently counting it as dropped.
func (r *Recorder) Stats() (kept, dropped int64) {
	if r == nil {
		return 0, 0
	}
	kept = r.kept.Load()
	if d := int64(r.tick.Load()) - kept; d > 0 {
		dropped = d
	}
	return kept, dropped
}

// Snapshot copies out every currently-held trace, newest first (by
// admission sequence). Allocates; scrape-path only.
func (r *Recorder) Snapshot() []TraceSnapshot {
	if r == nil {
		return nil
	}
	var out []TraceSnapshot
	for _, ring := range [2][]atomic.Pointer[Trace]{r.interesting, r.sampled} {
		for i := range ring {
			if tr := ring[i].Load(); tr != nil {
				out = append(out, tr.Snapshot())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Lookup returns the held trace with the given ID.
func (r *Recorder) Lookup(id string) (TraceSnapshot, bool) {
	if r == nil {
		return TraceSnapshot{}, false
	}
	for _, ring := range [2][]atomic.Pointer[Trace]{r.interesting, r.sampled} {
		for i := range ring {
			if tr := ring[i].Load(); tr != nil && tr.ID == id {
				return tr.Snapshot(), true
			}
		}
	}
	return TraceSnapshot{}, false
}

// TraceList is the /debug/traces payload.
type TraceList struct {
	Kept    int64           `json:"kept"`
	Dropped int64           `json:"dropped"`
	Traces  []TraceSnapshot `json:"traces"`
}

// Handler serves the recorder over HTTP: GET /debug/traces returns the
// full newest-first list, GET /debug/traces?id=<16 hex> one trace (404
// when it has already been overwritten or was never kept).
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id := req.URL.Query().Get("id"); id != "" {
			ts, ok := r.Lookup(id)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				_ = enc.Encode(struct {
					Error string `json:"error"`
				}{"trace not held: " + id})
				return
			}
			_ = enc.Encode(ts)
			return
		}
		kept, dropped := r.Stats()
		_ = enc.Encode(TraceList{Kept: kept, Dropped: dropped, Traces: r.Snapshot()})
	})
}
