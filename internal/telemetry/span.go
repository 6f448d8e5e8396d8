package telemetry

import (
	"sync/atomic"
	"time"
)

// This file is the trace's span tree: every unit of request work (queue
// wait, coalesced wait, DP build, curve extension, peer forward, hedged
// local compute, serialization) can open a named span with a parent, a
// start offset, a duration, and a few key=value attributes. Recording
// never takes a lock, and the first six spans of a trace (inlineSpans)
// never allocate, because spans are created on the oracle serve path
// whose zero-allocation contract is pinned by tests and a CI perf gate.
//
// Spans therefore live in a fixed-capacity arena: inlineSpans slots
// embedded in the Trace itself, which cover a warm request (root,
// queue, serialize) and a cold one (plus build or extend, coalesce
// wait), and one overflow chunk for the remaining MaxSpans−inlineSpans
// slots, which only forward, hedge and batch requests reach. The first
// writer past the inline slots allocates the chunk and publishes it
// with a compare-and-swap; a racing writer that loses drops its own
// chunk and uses the winner's. So recording stays lock-free, and a trace
// allocates once more after NewTrace at most, barring such a race.
//
// A writer reserves a slot with one atomic add, fills the slot's plain
// fields, and publishes it with an atomic store; readers (the flight
// recorder's /debug/traces handler, which may scrape a trace while a
// hedged local compute is still writing into it) observe a slot only
// after its release-store, and a slot of a chunk not yet published as
// unpublished, so concurrent record/scrape is race-detector-clean. When
// the arena is full further spans are counted as dropped, never
// reallocated — a request with pathological fan-out degrades to a
// truncated tree.

// MaxSpans is the span-arena capacity of one Trace. Sized for the
// deepest realistic request — root, queue, forward with per-attempt
// children, hedged local compute, a batch's per-group spans, serialize —
// with headroom; overflow increments Trace.DroppedSpans.
const MaxSpans = 32

// inlineSpans is how many arena slots are embedded in the Trace; spans
// past it go to the lazily allocated overflow chunk.
const inlineSpans = 6

// maxSpanAttrs bounds the key=value attributes of one span.
const maxSpanAttrs = 4

// span is one arena slot. Writers fill the plain fields between
// reserving the slot and publishing it via state; after publication
// only the atomic fields (durNS, value, attribute slots) may change.
type span struct {
	state   atomic.Uint32 // 0 free, 1 published
	parent  int32         // parent slot + 1; 0 = no parent (a root)
	name    string
	startNS int64        // offset from the trace's start
	durNS   atomic.Int64 // -1 while the span is open
	value   atomic.Int64 // optional numeric payload (batch sizes, entry counts)
	nattrs  atomic.Int32 // reserved attribute slots (may exceed maxSpanAttrs)
	attrs   [maxSpanAttrs]spanAttr
}

// spanAttr is one attribute slot, published independently of its span
// so concurrent SetAttr calls from racing goroutines never expose a
// half-written pair.
type spanAttr struct {
	ok   atomic.Uint32
	k, v string
}

// SpanRef is a value handle onto one span of one trace. The zero
// SpanRef is inert: every method is a no-op, so instrumented code can
// thread refs unconditionally. Refs stay valid for the life of the
// trace (spans are never reused or reclaimed).
type SpanRef struct {
	tr   *Trace
	slot int32 // arena index + 1; 0 = inert
}

// Active reports whether the ref names a live span.
func (s SpanRef) Active() bool { return s.tr != nil && s.slot > 0 }

// reserve claims one arena slot, or -1 when the trace is nil, sealed,
// or full. It allocates only when it claims the first slot past the
// inline ones and finds the overflow chunk not yet there.
func (t *Trace) reserve() int32 {
	if t == nil {
		return -1
	}
	if Flag(t.flags.Load())&flagSealed != 0 {
		return -1
	}
	idx := t.nspans.Add(1) - 1
	if idx >= MaxSpans {
		t.droppedSpans.Add(1)
		return -1
	}
	if idx >= inlineSpans && t.more.Load() == nil {
		t.more.CompareAndSwap(nil, new([MaxSpans - inlineSpans]span))
	}
	return idx
}

// slot returns arena slot i, or nil when i lies in an overflow chunk no
// writer has allocated yet (a reader then sees that slot unpublished).
// A reserved slot is never nil.
func (t *Trace) slot(i int32) *span {
	if i < inlineSpans {
		return &t.spans[i]
	}
	more := t.more.Load()
	if more == nil {
		return nil
	}
	return &more[i-inlineSpans]
}

// published returns arena slot i when a writer has published it, else nil.
func (t *Trace) published(i int32) *span {
	if sp := t.slot(i); sp != nil && sp.state.Load() != 0 {
		return sp
	}
	return nil
}

// StartSpan opens a span named name under parent (the zero SpanRef
// makes it a root) starting now. Returns an inert ref on a nil or
// sealed trace or a full arena. Lock-free; allocation-free except for
// the overflow chunk (see reserve).
func (t *Trace) StartSpan(name string, parent SpanRef) SpanRef {
	idx := t.reserve()
	if idx < 0 {
		return SpanRef{}
	}
	sp := t.slot(idx)
	sp.name = name
	sp.parent = 0
	if parent.tr == t && parent.slot > 0 {
		sp.parent = parent.slot
	}
	sp.startNS = int64(time.Since(t.start))
	sp.durNS.Store(-1)
	sp.state.Store(1)
	return SpanRef{tr: t, slot: idx + 1}
}

// AddSpan records an already-completed span in one call — the shape
// used where the duration is known at the end of the work (coalesce
// waits, DP builds, per-batch runner intervals). start may precede the
// trace's own start (clamped to 0). Lock-free; allocation-free except
// for the overflow chunk (see reserve).
func (t *Trace) AddSpan(name string, parent SpanRef, start time.Time, d time.Duration) SpanRef {
	idx := t.reserve()
	if idx < 0 {
		return SpanRef{}
	}
	sp := t.slot(idx)
	sp.name = name
	sp.parent = 0
	if parent.tr == t && parent.slot > 0 {
		sp.parent = parent.slot
	}
	off := start.Sub(t.start)
	if off < 0 {
		off = 0
	}
	if d < 0 {
		d = 0
	}
	sp.startNS = int64(off)
	sp.durNS.Store(int64(d))
	sp.state.Store(1)
	return SpanRef{tr: t, slot: idx + 1}
}

// Root returns a ref to the trace's first span — by convention the
// request-level span the HTTP middleware opens before any other writer
// touches the trace. Inert when the trace is nil or has no spans yet,
// so code below the edge parents onto it unconditionally.
func (t *Trace) Root() SpanRef {
	if t == nil || t.nspans.Load() < 1 || t.spans[0].state.Load() == 0 {
		return SpanRef{}
	}
	return SpanRef{tr: t, slot: 1}
}

// AppendPhases appends the trace's phase breakdown to dst: the
// durations of the root span's finished children summed by span name,
// in first-seen order, e.g. "queue=41µs build=12.3ms serialize=88µs".
// Nothing is appended when no child has finished. It reads the arena in
// place — no Snapshot copy — and allocates only each duration's text.
func (t *Trace) AppendPhases(dst []byte) []byte {
	if t == nil {
		return dst
	}
	n := min(t.nspans.Load(), MaxSpans)
	var names [MaxSpans]string
	var sums [MaxSpans]time.Duration
	k := 0
	for i := int32(0); i < n; i++ {
		sp := t.published(i)
		if sp == nil || sp.parent != 1 {
			continue
		}
		d := time.Duration(sp.durNS.Load())
		if d <= 0 {
			continue
		}
		j := 0
		for j < k && names[j] != sp.name {
			j++
		}
		if j == k {
			names[k] = sp.name
			k++
		}
		sums[j] += d
	}
	for j := 0; j < k; j++ {
		if j > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, names[j]...)
		dst = append(dst, '=')
		dst = append(dst, sums[j].String()...)
	}
	return dst
}

// End closes the span with a duration measured from its start.
// Idempotent-enough: a second End overwrites the duration. Safe (and
// meaningful) after the trace is sealed — a hedged local compute may
// outlive the request that spawned it, and its span should still show
// how long it really ran.
func (s SpanRef) End() {
	if !s.Active() {
		return
	}
	sp := s.tr.slot(s.slot - 1)
	sp.durNS.Store(int64(time.Since(s.tr.start)) - sp.startNS)
}

// SetAttr attaches key=val to the span. At most maxSpanAttrs stick;
// extras are silently dropped. Zero-alloc when key and val are
// preexisting strings.
//
// Re-setting a key the span already carries with the same value is a
// pure read (no atomic write): the oracle stamps cache=hit on the root
// of every warm lookup, and with string literals on both sides the
// dedup scan is a handful of pointer-equal compares. A same-key
// different-value set appends a new slot; snapshots render slots in
// order into a map, so the later value wins — overwrite semantics
// without slot mutation.
func (s SpanRef) SetAttr(key, val string) {
	if !s.Active() {
		return
	}
	sp := s.tr.slot(s.slot - 1)
	n := sp.nattrs.Load()
	if n > maxSpanAttrs {
		n = maxSpanAttrs
	}
	for i := int32(0); i < n; i++ {
		a := &sp.attrs[i]
		if a.ok.Load() != 0 && a.k == key && a.v == val {
			return
		}
	}
	idx := sp.nattrs.Add(1) - 1
	if idx >= maxSpanAttrs {
		return
	}
	a := &sp.attrs[idx]
	a.k, a.v = key, val
	a.ok.Store(1)
}

// SetValue attaches a numeric payload to the span (rendered as "value"
// in snapshots; zero means unset).
func (s SpanRef) SetValue(v int64) {
	if !s.Active() {
		return
	}
	s.tr.slot(s.slot - 1).value.Store(v)
}

// ValidTraceID reports whether s is a well-formed trace ID as minted by
// NewTraceID: exactly 16 lowercase hex characters. The HTTP edge adopts
// only valid IDs from the TraceHeader; anything else — junk, injection
// attempts, overlong values — is discarded and a fresh ID minted.
func ValidTraceID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SpanSnapshot is one span rendered for JSON export. Parent is the
// index of the parent span in the enclosing snapshot's Spans slice, or
// -1 for a root; DurNS is -1 while the span is still open.
type SpanSnapshot struct {
	Name    string            `json:"name"`
	Parent  int               `json:"parent"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Value   int64             `json:"value,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// TraceSnapshot is a consistent copy of one trace for JSON export —
// the /debug/traces payload element. Allocates; scrape-path only.
type TraceSnapshot struct {
	ID           string         `json:"id"`
	Start        time.Time      `json:"start"`
	DurNS        int64          `json:"dur_ns"` // 0 while unfinished
	Seq          uint64         `json:"seq,omitempty"`
	Flags        []string       `json:"flags,omitempty"`
	DroppedSpans int64          `json:"dropped_spans,omitempty"`
	Spans        []SpanSnapshot `json:"spans"`
}

// Snapshot renders the trace — possibly still being written to by a
// hedge goroutine — into an exportable copy. Only published spans and
// attribute slots are included, so the copy is always internally
// consistent.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	out := TraceSnapshot{
		ID:           t.ID,
		Start:        t.start,
		DurNS:        t.durNS.Load(),
		Seq:          t.seq.Load(),
		Flags:        t.flagNames(),
		DroppedSpans: t.droppedSpans.Load(),
	}
	n := t.nspans.Load()
	if n > MaxSpans {
		n = MaxSpans
	}
	// Unpublished slots (a writer caught mid-fill) are skipped, so arena
	// indices are remapped onto the compacted output slice; a parent not
	// itself published renders as a root.
	var remap [MaxSpans]int
	out.Spans = make([]SpanSnapshot, 0, n)
	for i := int32(0); i < n; i++ {
		sp := t.published(i)
		if sp == nil {
			remap[i] = -1
			continue
		}
		remap[i] = len(out.Spans)
		parent := -1
		if sp.parent > 0 {
			parent = remap[sp.parent-1]
		}
		ss := SpanSnapshot{
			Name:    sp.name,
			Parent:  parent,
			StartNS: sp.startNS,
			DurNS:   sp.durNS.Load(),
			Value:   sp.value.Load(),
		}
		na := sp.nattrs.Load()
		if na > maxSpanAttrs {
			na = maxSpanAttrs
		}
		for j := int32(0); j < na; j++ {
			a := &sp.attrs[j]
			if a.ok.Load() == 0 {
				continue
			}
			if ss.Attrs == nil {
				ss.Attrs = make(map[string]string, na)
			}
			ss.Attrs[a.k] = a.v
		}
		out.Spans = append(out.Spans, ss)
	}
	return out
}
