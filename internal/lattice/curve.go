package lattice

import (
	"fmt"
	"math"
)

// Builder constructs a fresh, seeded engine whose sweep is faithful (exact,
// or rigorously conservative for sticky-reach chains) for every horizon
// t ≤ kCap. Fixed-geometry chains — the saturating upper-bound chain, whose
// caps do not depend on the horizon — may ignore kCap. The Curve alone owns
// the engine it gets and frees it (Engine.Free) on a ladder rung change and
// on Release, so a Builder must never return an engine anything else holds.
type Builder func(kCap int) (*Engine, error)

// Curve is an incrementally extensible settlement curve: the per-horizon
// readout Pr[s ≥ 0] of one lattice chain, together with the pruning ledger
// that brackets it. Extending a Curve from horizon k to 2k continues the
// cached sweep instead of restarting it — for fixed-geometry chains every
// lattice step is taken exactly once no matter how the horizon grows, which
// is what makes doubling searches (core.ConfirmationDepth) linear instead
// of quadratic in the final depth.
//
// # Canonical geometry ladder
//
// For horizon-dependent geometries (the exact chain, whose caps must cover
// the largest horizon) the engine capacity is not chosen from the request
// history but from a fixed ladder: the readout at horizon t is always
// computed by an engine built with capacity capFor(t) — the smallest
// power of two ≥ t, floored at ladderFloor. Rung c thus owns the horizons
// (c/2, c] (the floor rung owns 1..ladderFloor). A rung's sweep runs from
// step zero, silently replaying the steps below the horizons it stores;
// a published value is never overwritten. The geometry under which slot t
// was computed is therefore a function of t alone, which makes the value
// at horizon t byte-identical across ALL curves sharing a Builder — no
// matter how Extend and Publish calls were batched, interleaved with
// Restore, or ordered on the way to t. This bitwise path-independence is
// what lets internal/oracle promise that a replica failover, a snapshot
// restart, or a cold verifier recompute produces the very same float64
// answers (the failover-answer-identity and rung-sparse-identity
// conformance invariants).
//
// # Dense and single-horizon reads
//
// Extend(k) publishes every horizon 1..k, walking the rungs from the first
// unpublished horizon up; the steps it replays cost at most a small
// constant factor over one uninterrupted sweep (capacities are geometric,
// so the ladder work telescopes: 440 steps for a cold k = 200). Publish(k)
// publishes horizon k alone: it runs only rung capFor(k), from step zero
// to k, and stores the horizons of that rung it passes — 200 steps for a
// cold k = 200, of which the first 128 are replayed. The readouts stay one
// horizon-indexed record; a horizon no rung has published yet holds NaN
// in both slices. Work counts the two kinds of steps.
//
// # Concurrency contract
//
// A Curve is NOT safe for unguarded concurrent use: Extend and Publish
// mutate the cached engine and readout slices, and the readers (Lower,
// Upper, Has, Values, ValuesUpTo, Len, MemBytes) observe them without
// synchronization. The contract for a shared curve is single-owner
// locking: exactly one lock guards both the extensions and every read of
// the same handle. Extension is idempotent (a published horizon is never
// recomputed) and deterministic, so serialized extend-then-read under one
// lock yields answers identical to a private cold build — this is the
// property internal/oracle relies on when it extends hot cached curves in
// place under per-entry locks.
//
// # Residency
//
// A Curve holds two kinds of state: the O(k) readouts every answer is
// read from, and the engine's O(cap²) mass grid, which is needed only to
// publish horizons not yet on record. Release frees the grid and leaves
// the readouts, the same state Restore produces; the next Extend or
// Publish that needs the engine rebuilds its rung and replays from step
// zero, so its values are byte-identical to those of a curve that never
// released (the readout-residency-identity conformance invariant). A
// search that extends step after step (core.ConfirmationDepth) keeps its
// engine; a cache that answers mostly from readouts (internal/oracle)
// releases it once each request's extension is done, and a one-shot sweep
// (settlement.ViolationCurve and its kin) releases it once read.
//
// A freed grid, its live bands cleared, goes to a pool keyed by size, and
// the next NewEngine of that size takes it instead of allocating and
// zeroing a fresh one: after the first cold build, the next builds of the
// same ladder rungs allocate only their readouts and interval buffers.
type Curve struct {
	build Builder
	fixed bool

	eng   *Engine
	cap   int       // horizons ≤ cap are faithful for eng's geometry
	lower []float64 // lower[t-1]: band mass at s ≥ 0 after t steps; NaN if unpublished
	drop  []float64 // drop[t-1]: cumulative pruned mass after t steps; NaN if unpublished
	dense int       // horizons 1..dense are all published

	published, replayed int64 // lattice steps whose readout was stored / was not
}

// NewCurve wraps a Builder. fixedGeometry declares that the builder's
// engine is faithful at every horizon regardless of kCap.
func NewCurve(b Builder, fixedGeometry bool) *Curve {
	return &Curve{build: b, fixed: fixedGeometry}
}

// Len returns the largest horizon published so far. Horizons below it may
// be unpublished (see Has); after Extend(k) none up to k are.
func (c *Curve) Len() int { return len(c.lower) }

// Has reports whether horizon t has been published.
func (c *Curve) Has(t int) bool {
	return t >= 1 && t <= len(c.lower) && !math.IsNaN(c.lower[t-1])
}

// HasPrefix reports whether every horizon 1..k has been published, so that
// Extend(k) would do nothing.
func (c *Curve) HasPrefix(k int) bool { return k <= c.dense }

// Work returns how many lattice steps the curve has taken since it was
// made: published steps stored a readout, replayed steps did not (they
// re-ran a rung below horizons it stores, or passed one already on
// record). The counts depend on the requests alone, never on timing.
func (c *Curve) Work() (published, replayed int64) { return c.published, c.replayed }

// ladderFloor is the smallest canonical engine capacity. Small enough
// that a cache full of shallow curves stays cheap, large enough that
// shallow horizons don't churn through several rebuilds.
const ladderFloor = 16

// capFor returns the canonical engine capacity covering horizon t: the
// smallest power of two ≥ t, floored at ladderFloor. Making the capacity
// a pure function of the horizon — never of the extension history — is
// what pins the float64 readout at each horizon to a single canonical
// bit pattern (see the type comment).
func capFor(t int) int {
	c := ladderFloor
	for c < t {
		c <<= 1
	}
	return c
}

// Extend advances the cached sweep so that every horizon 1..k is available.
// It is a no-op when HasPrefix(k). Published readouts are never
// recomputed: each unpublished horizon is filled by its own rung, whose
// sweep replays silently through the horizons below it.
func (c *Curve) Extend(k int) error {
	if k < 1 {
		return fmt.Errorf("lattice: horizon %d must be ≥ 1", k)
	}
	for c.dense < k {
		t := c.dense + 1 // the first unpublished horizon
		kCap, stop := k, k
		if !c.fixed {
			kCap = capFor(t)
			stop = min(k, kCap) // this rung owns horizons ≤ kCap only
		}
		if err := c.sweep(kCap, t, stop); err != nil {
			return err
		}
	}
	return nil
}

// Publish makes horizon k available without filling the horizons below
// it: only rung capFor(k) runs, and it stores the unpublished horizons of
// its own range it passes on the way to k. A fixed-geometry curve has one
// rung for every horizon, so there Publish is Extend. Like Extend it is a
// no-op for a published horizon, and the value it stores at each horizon
// is the one Extend would store.
func (c *Curve) Publish(k int) error {
	if k < 1 {
		return fmt.Errorf("lattice: horizon %d must be ≥ 1", k)
	}
	if c.fixed {
		return c.Extend(k)
	}
	if c.Has(k) {
		return nil
	}
	kCap := capFor(k)
	from := c.dense + 1
	if kCap > ladderFloor {
		from = max(from, kCap/2+1)
	}
	for c.Has(from) { // k itself is unpublished, so this stops by k
		from++
	}
	return c.sweep(kCap, from, k)
}

// sweep runs the engine of capacity kCap to horizon to, storing the
// readout of every unpublished horizon in [from, to]. It keeps the cached
// engine when it is of that capacity and has not stepped past from−1;
// otherwise it builds one and replays from step zero — deterministically,
// so the engine reaches exactly the state that produced (or would have
// produced) the readouts on record.
func (c *Curve) sweep(kCap, from, to int) error {
	if c.eng == nil || (!c.fixed && c.cap != kCap) || c.eng.Steps() >= from {
		c.Release()
		eng, err := c.build(kCap)
		if err != nil {
			return err
		}
		c.eng, c.cap = eng, kCap
	}
	for len(c.lower) < to {
		c.lower = append(c.lower, math.NaN())
		c.drop = append(c.drop, math.NaN())
	}
	for t := c.eng.Steps() + 1; t <= to; t++ {
		if t < from || !math.IsNaN(c.lower[t-1]) {
			c.eng.Advance()
			c.replayed++
			continue
		}
		c.eng.Step()
		c.lower[t-1], c.drop[t-1] = c.eng.TailMass(), c.eng.Dropped()
		c.published++
	}
	c.advanceDense()
	return nil
}

// advanceDense moves dense past every published horizon that follows it.
func (c *Curve) advanceDense() {
	for c.dense < len(c.lower) && !math.IsNaN(c.lower[c.dense]) {
		c.dense++
	}
}

// Lower returns the computed band mass at a published horizon t: a lower
// end of the bracket (and the exact chain value when τ = 0).
func (c *Curve) Lower(t int) float64 { return c.lower[t-1] }

// Upper returns the certified upper end of the bracket at a published
// horizon t: Lower(t) plus all mass pruned so far, clamped to 1.
func (c *Curve) Upper(t int) float64 {
	u := c.lower[t-1] + c.drop[t-1]
	if u > 1 {
		return 1
	}
	return u
}

// Bracket returns [Lower(t), Upper(t)]. The exact value of the unpruned
// chain at horizon t always lies inside.
func (c *Curve) Bracket(t int) (lo, hi float64) { return c.Lower(t), c.Upper(t) }

// Dropped returns the total pruned mass over the sweep so far.
func (c *Curve) Dropped() float64 {
	if n := len(c.drop); n > 0 {
		return c.drop[n-1]
	}
	return 0
}

// Values returns a copy of the lower curve for horizons 1..Len(), which
// must all be published.
func (c *Curve) Values() []float64 {
	out := make([]float64, len(c.lower))
	copy(out, c.lower)
	return out
}

// ValuesUpTo returns a copy of the lower curve for horizons 1..k, which
// must satisfy HasPrefix(k). Readers that share a curve take copies so that a
// later in-place Extend by the owning lock holder never aliases data a
// previous caller is still reading.
func (c *Curve) ValuesUpTo(k int) []float64 {
	out := make([]float64, k)
	copy(out, c.lower[:k])
	return out
}

// Release frees the cached engine, handing its grids back for the next
// build to reuse, and keeps the readouts: every published horizon still
// serves, and the next Extend or Publish of an unpublished one rebuilds
// its rung and replays the sweep from step zero, exactly as after Restore.
func (c *Curve) Release() {
	if c.eng != nil {
		c.eng.Free()
	}
	c.eng, c.cap = nil, 0
}

// ReadoutBytes returns the heap footprint of the readout slices alone:
// what a released curve keeps resident.
func (c *Curve) ReadoutBytes() int64 { return int64(cap(c.lower)+cap(c.drop)) * 8 }

// MemBytes returns the resident heap footprint of the handle: the readout
// slices plus the cached engine's buffers, if it holds one. Cache owners
// (internal/oracle) use it to account resident curve bytes per entry.
func (c *Curve) MemBytes() int64 {
	n := c.ReadoutBytes()
	if c.eng != nil {
		n += c.eng.MemBytes()
	}
	return n
}

// State returns copies of the curve's readout slices — the per-horizon
// lower values and cumulative pruned-mass ledger for horizons 1..Len(),
// NaN in both at each unpublished horizon.
// Together with the Builder these fully determine every answer the curve
// can give, which is what snapshot serialization (internal/oracle)
// persists: the engine's transient mass grid is deliberately excluded, so
// a restored curve re-runs the deterministic sweep if it is ever asked
// for a horizon the snapshot did not publish.
func (c *Curve) State() (lower, drop []float64) {
	lower = make([]float64, len(c.lower))
	copy(lower, c.lower)
	drop = make([]float64, len(c.drop))
	copy(drop, c.drop)
	return lower, drop
}

// Restore primes a fresh curve with previously computed readouts, after
// validating that they are a plausible sweep: equal lengths, every
// published lower value a probability, and a finite, non-negative ledger,
// non-decreasing over the published horizons. A horizon is unpublished
// when both slices hold NaN there; the last one must be published. The
// slices are copied. Published horizons then serve without any engine
// work; the first Extend or Publish of an unpublished one rebuilds its
// rung and replays the deterministic sweep from step zero, yielding
// values byte-identical to an uninterrupted cold build (the property the
// snapshot-roundtrip-identity conformance invariant pins).
//
// Restore refuses non-empty curves: restored state never overwrites
// computed state.
func (c *Curve) Restore(lower, drop []float64) error {
	if c.Len() > 0 {
		return fmt.Errorf("lattice: Restore on a curve with %d computed horizons", c.Len())
	}
	if len(lower) != len(drop) {
		return fmt.Errorf("lattice: Restore length mismatch: %d lower vs %d drop", len(lower), len(drop))
	}
	prev := 0.0
	for i := range lower {
		if math.IsNaN(lower[i]) && math.IsNaN(drop[i]) && i < len(lower)-1 {
			continue // unpublished horizon
		}
		if !(lower[i] >= 0 && lower[i] <= 1) { // positive form rejects NaN
			return fmt.Errorf("lattice: Restore lower[%d] = %v outside [0, 1]", i, lower[i])
		}
		d := drop[i]
		if !(d >= prev) || math.IsInf(d, 0) {
			return fmt.Errorf("lattice: Restore drop[%d] = %v not a finite non-decreasing ledger (prev %v)", i, d, prev)
		}
		prev = d
	}
	c.lower = append(c.lower[:0], lower...)
	c.drop = append(c.drop[:0], drop...)
	c.advanceDense()
	c.Release()
	return nil
}
