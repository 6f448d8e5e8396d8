package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// TraceHeader carries a request's trace ID across process boundaries: the
// HTTP edge adopts an incoming value or mints one, cluster forwards and
// hedged reads propagate it, and every replica's request log records it —
// so one slow query is greppable across the whole replica set.
const TraceHeader = "X-Multihonest-Trace"

// traceState seeds the process-local trace ID stream: random base from
// crypto/rand (so concurrent replicas never collide), advanced by the
// splitmix64 golden gamma per ID.
var traceState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		traceState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		traceState.Store(uint64(time.Now().UnixNano()))
	}
}

// NewTraceID returns a fresh 16-hex-character trace ID. IDs are unique
// within a process and collision-resistant across replicas (64 random
// bits of seed); generation is one atomic add plus a finalizer mix.
func NewTraceID() string {
	x := traceState.Add(0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], x)
	return hex.EncodeToString(b[:])
}

// Flag marks a trace as interesting to the flight recorder's tail
// sampler: flagged traces are always kept, unflagged ones only
// probabilistically (see Recorder).
type Flag uint32

const (
	// FlagError marks a request that failed server-side (5xx).
	FlagError Flag = 1 << iota
	// FlagHedged marks a request whose forward was raced by a hedged
	// local compute.
	FlagHedged
	// FlagHedgeWon marks a hedged request the local compute won.
	FlagHedgeWon
	// FlagBreaker marks a request during which a peer's circuit breaker
	// changed state.
	FlagBreaker
	// FlagForce unconditionally keeps the trace (operational traces:
	// snapshot loads and saves).
	FlagForce
	// flagSealed is set by Finish: the trace's span arena stops
	// accepting new spans (late hedge-goroutine writers drop cleanly).
	flagSealed
)

var flagNameTab = []struct {
	f    Flag
	name string
}{
	{FlagError, "error"}, {FlagHedged, "hedged"}, {FlagHedgeWon, "hedge_won"},
	{FlagBreaker, "breaker"}, {FlagForce, "forced"},
}

// Trace is one request's identity and span tree. Recording is atomic
// writes into a fixed arena — no locks, and no allocation for the first
// six spans — and safe from the hedge race's concurrent
// goroutines. A nil *Trace discards all recordings, so instrumented code
// needs no call-site branches.
//
// Traces are allocated fresh per request and must never be pooled: the
// loser of a cluster forward/hedge race outlives the request handler and
// may keep writing spans after it has returned — a hedged local compute
// runs its oracle query to completion, and a forward goroutine records
// its attempt until it sees the cancelled context. Finish seals the
// arena so those late writes drop instead of landing in a recycled
// request.
type Trace struct {
	ID    string
	start time.Time

	flags atomic.Uint32
	durNS atomic.Int64  // end-to-end duration, set once by Finish
	seq   atomic.Uint64 // flight-recorder admission sequence

	nspans       atomic.Int32
	droppedSpans atomic.Int64
	spans        [inlineSpans]span // slots 0..inlineSpans-1
	// more holds slots inlineSpans..MaxSpans-1. The first writer past
	// the inline slots allocates it and publishes it by CAS, so
	// recording stays lock-free (see span.go).
	more atomic.Pointer[[MaxSpans - inlineSpans]span]
}

// NewTrace starts a trace now; an empty id mints a fresh one.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{ID: id, start: time.Now()}
}

// Start returns the trace's start time (zero on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// SetFlag marks the trace for the tail sampler. Atomic; nil-safe.
func (t *Trace) SetFlag(f Flag) {
	if t == nil {
		return
	}
	t.flags.Or(uint32(f))
}

// HasFlag reports whether f is set.
func (t *Trace) HasFlag(f Flag) bool {
	return t != nil && Flag(t.flags.Load())&f != 0
}

// flagNames renders the set exported flags (nil when none).
func (t *Trace) flagNames() []string {
	fl := Flag(t.flags.Load())
	var out []string
	for _, e := range flagNameTab {
		if fl&e.f != 0 {
			out = append(out, e.name)
		}
	}
	return out
}

// Finish seals the trace: records the end-to-end duration (first call
// wins) and closes the span arena to new spans, so goroutines that
// outlive the request — the losing side of a cluster forward/hedge race
// — cannot grow a trace the flight recorder may already be serving.
// Returns the recorded duration.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.start)
	if d <= 0 {
		d = 1 // a sealed trace is distinguishable from an unfinished one
	}
	t.durNS.CompareAndSwap(0, int64(d))
	t.flags.Or(uint32(flagSealed))
	return time.Duration(t.durNS.Load())
}

// Duration returns the end-to-end duration recorded by Finish (0 while
// unfinished).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.durNS.Load())
}

// DroppedSpans counts spans lost to arena overflow.
func (t *Trace) DroppedSpans() int64 {
	if t == nil {
		return 0
	}
	return t.droppedSpans.Load()
}

// traceKey is the context key of the request trace.
type traceKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil — callers never branch,
// they just record into the (nil-safe) result.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
